package relation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRenderTableGolden pins RenderTable's exact bytes: every front end
// (REPL, server clients, meta-relation dumps) prints through it, and the
// client's rendering must match the server's byte for byte.
func TestRenderTableGolden(t *testing.T) {
	cases := []struct {
		name  string
		title string
		attrs []string
		rows  [][]string
		short bool
		want  string
	}{
		{
			name:  "zero rows",
			attrs: []string{"NAME", "SALARY"},
			want: "| NAME | SALARY |\n" +
				"| ---- | ------ |\n",
		},
		{
			name: "zero columns",
			rows: [][]string{{}},
			want: "|  |\n" +
				"|  |\n" +
				"|  |\n",
		},
		{
			name:  "title",
			title: "EMPLOYEE",
			attrs: []string{"NAME"},
			rows:  [][]string{{"Jones"}},
			want: "EMPLOYEE\n" +
				"| NAME  |\n" +
				"| ----- |\n" +
				"| Jones |\n",
		},
		{
			name:  "short qualified names",
			attrs: []string{"EMPLOYEE.NAME", "EMPLOYEE:2.SALARY", "X"},
			rows:  [][]string{{"Jones", "26000", "1"}},
			short: true,
			want: "| NAME  | SALARY | X |\n" +
				"| ----- | ------ | - |\n" +
				"| Jones | 26000  | 1 |\n",
		},
		{
			name:  "qualified names kept",
			attrs: []string{"EMPLOYEE.NAME"},
			rows:  [][]string{{"Jones"}},
			want: "| EMPLOYEE.NAME |\n" +
				"| ------------- |\n" +
				"| Jones         |\n",
		},
		{
			name:  "cells wider than header",
			attrs: []string{"A", "B"},
			rows: [][]string{
				{"longvalue", "x"},
				{"y", "wider-than-b"},
				{"z", "0123456789012345678901234567890123456789"},
			},
			want: "| A         | B                                        |\n" +
				"| --------- | ---------------------------------------- |\n" +
				"| longvalue | x                                        |\n" +
				"| y         | wider-than-b                             |\n" +
				"| z         | 0123456789012345678901234567890123456789 |\n",
		},
		{
			name:  "withheld cells",
			attrs: []string{"NAME", "TITLE", "SALARY"},
			rows:  [][]string{{"Jones", "-", "26000"}, {"Smith", "-", "-"}},
			want: "| NAME  | TITLE | SALARY |\n" +
				"| ----- | ----- | ------ |\n" +
				"| Jones | -     | 26000  |\n" +
				"| Smith | -     | -      |\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			sb.WriteString("before\n")
			RenderTable(&sb, c.title, c.attrs, c.rows, c.short)
			if got := sb.String(); got != "before\n"+c.want {
				t.Errorf("strings.Builder:\n%q\nwant\n%q", got, "before\n"+c.want)
			}
			var bb bytes.Buffer
			RenderTable(&bb, c.title, c.attrs, c.rows, c.short)
			if got := bb.String(); got != c.want {
				t.Errorf("bytes.Buffer:\n%q\nwant\n%q", got, c.want)
			}
		})
	}
}

var renderSink string

// BenchmarkRenderTable renders a 3003×2 table.
func BenchmarkRenderTable(b *testing.B) {
	rows := make([][]string, 3003)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("E%04d", i), fmt.Sprint(20000 + 37*i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		RenderTable(&sb, "", []string{"NAME", "SALARY"}, rows, false)
		renderSink = sb.String()
	}
}

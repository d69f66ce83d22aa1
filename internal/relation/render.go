package relation

import (
	"io"
	"strings"
)

// RenderTable writes an ASCII table in the style of the paper's figures:
// a header row of attribute names, a rule, then the rows. Rows are printed
// in the order given. Attribute names are shortened to their bare part
// when short is true.
//
// The table is built in one pass into a buffer sized up front; when w is
// a *strings.Builder it is that buffer.
func RenderTable(w io.Writer, title string, attrs []string, rows [][]string, short bool) {
	header := attrs
	if short {
		header = make([]string, len(attrs))
		for i, a := range attrs {
			_, header[i] = SplitQualified(a)
		}
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	// Every line is "| " + cells joined by " | " + " |\n".
	lineLen := 5
	for i, width := range widths {
		if i > 0 {
			lineLen += 3
		}
		lineLen += width
	}
	size := lineLen * (len(rows) + 2)
	if title != "" {
		size += len(title) + 1
	}

	b, direct := w.(*strings.Builder)
	if !direct {
		b = new(strings.Builder)
	}
	b.Grow(size)
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	writeLine(b, header, widths)
	b.WriteString("| ")
	for i, width := range widths {
		if i > 0 {
			b.WriteString(" | ")
		}
		pad(b, dashes, width)
	}
	b.WriteString(" |\n")
	for _, row := range rows {
		writeLine(b, row, widths)
	}
	if !direct {
		io.WriteString(w, b.String())
	}
}

// writeLine writes one table line, each cell left-aligned and padded to
// its column's width.
func writeLine(b *strings.Builder, cells []string, widths []int) {
	b.WriteString("| ")
	for i, c := range cells {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(c)
		if i < len(widths) {
			pad(b, spaces, widths[i]-len(c))
		}
	}
	b.WriteString(" |\n")
}

const (
	spaces = "                                "
	dashes = "--------------------------------"
)

// pad writes n fill bytes, fill being spaces or dashes.
func pad(b *strings.Builder, fill string, n int) {
	for n > len(fill) {
		b.WriteString(fill)
		n -= len(fill)
	}
	if n > 0 {
		b.WriteString(fill[:n])
	}
}

// Render writes the relation as an ASCII table in canonical tuple order.
func (r *Relation) Render(w io.Writer, title string) {
	rows := make([][]string, 0, r.Len())
	for _, t := range r.Sorted() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		rows = append(rows, row)
	}
	RenderTable(w, title, r.Attrs, rows, true)
}

// String renders the relation as a table.
func (r *Relation) String() string {
	var b strings.Builder
	r.Render(&b, "")
	return b.String()
}

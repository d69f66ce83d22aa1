package server

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"authdb"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// TestResponseRendersLikeResult: a response as the client receives it,
// encoded and decoded as JSON, renders byte-identical to the session
// result it came from, for every shape of result.
func TestResponseRendersLikeResult(t *testing.T) {
	db := authdb.Open()
	db.Admin().MustExecScript(workload.PaperScript)
	cases := []struct {
		name, user, stmt string
		check            func(*authdb.Result) bool
	}{
		{"full answer", "Brown", "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)",
			func(r *authdb.Result) bool { return r.FullyAuthorized }},
		{"partial answer", "Brown", workload.Example1Query,
			func(r *authdb.Result) bool { return !r.FullyAuthorized && !r.Denied && len(r.Permits) > 0 }},
		{"denial", "Nobody", "retrieve (EMPLOYEE.SALARY)",
			func(r *authdb.Result) bool { return r.Denied }},
		{"text-only ack", "", "insert into EMPLOYEE values (Gray, clerk, 19000)",
			func(r *authdb.Result) bool { return r.Table == nil && r.Text != "" }},
		{"stats", "", `\stats`,
			func(r *authdb.Result) bool { return r.Table == nil && strings.Contains(r.Text, "authdb_") }},
	}
	for _, c := range cases {
		sess := db.Admin()
		if c.user != "" {
			sess = db.Session(c.user)
		}
		res, err := sess.Dispatch(context.Background(), c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.check(res) {
			t.Fatalf("%s: result is not of the intended shape: %+v", c.name, res)
		}
		payload, err := json.Marshal(responseOf(1, res))
		if err != nil {
			t.Fatal(err)
		}
		var back wire.Response
		if err := json.Unmarshal(payload, &back); err != nil {
			t.Fatal(err)
		}
		got := wire.Render(back.Text, back.Table, back.Permits, back.FullyAuthorized, back.Denied)
		if want := res.Render(); got != want {
			t.Errorf("%s: decoded response renders\n%s\nwant\n%s", c.name, got, want)
		}
	}
}

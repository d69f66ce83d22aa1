package main

import (
	"fmt"
	"slices"

	"authdb"
	"authdb/pkg/client"
)

// answer is the part of a retrieve's outcome the client sees: the
// rendered text, the table cells as sent on the wire, the permit
// statements and the outcome flags. Two answers are equal only when
// every part is byte-identical.
type answer struct {
	Rendered        string
	Columns         []string
	Rows            [][]string
	Permits         []string
	FullyAuthorized bool
	Denied          bool
}

func answerFromClient(r *client.Result) answer {
	return answer{Rendered: r.Rendered, Columns: r.Columns, Rows: r.Rows, Permits: r.Permits,
		FullyAuthorized: r.FullyAuthorized, Denied: r.Denied}
}

func answerFromDB(r *authdb.Result) answer {
	a := answer{Rendered: r.Render(), Permits: r.Permits,
		FullyAuthorized: r.FullyAuthorized, Denied: r.Denied}
	if r.Table != nil {
		a.Columns = r.Table.Columns
		for _, row := range r.Table.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = c.String()
			}
			a.Rows = append(a.Rows, cells)
		}
	}
	return a
}

func (a answer) equal(b answer) bool {
	return a.Rendered == b.Rendered &&
		a.FullyAuthorized == b.FullyAuthorized && a.Denied == b.Denied &&
		slices.Equal(a.Columns, b.Columns) && slices.Equal(a.Permits, b.Permits) &&
		slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]string])
}

// referenceOptions is the naive side of the answer check: no mask
// cache, no closure, no mask pushdown. The optimized executor stays on
// because the naive product order cannot evaluate the 3-way join at
// fixture scale (300×1200×600 intermediate rows); the repository's
// differential tests pin the optimized executor to the naive one.
func referenceOptions() authdb.Options {
	o := authdb.DefaultOptions()
	o.MaskPushdown = false
	o.MaskClosure = false
	return o
}

// reference is an in-memory database holding the same seeded inputs as
// the measured one, answering every query the slow way.
type reference struct {
	db       *authdb.DB
	sessions map[string]*authdb.Session
	memo     map[string]answer
}

func newReference(script string, writes []string) (*reference, error) {
	db := authdb.Open(referenceOptions())
	db.Engine().SetMaskCacheEnabled(false)
	admin := db.Admin().SetLimits(authdb.Unlimited())
	if _, err := admin.ExecScript(script); err != nil {
		return nil, fmt.Errorf("reference fixture: %w", err)
	}
	for _, w := range writes {
		if _, err := admin.Exec(w); err != nil {
			return nil, fmt.Errorf("reference replay %q: %w", w, err)
		}
	}
	return &reference{db: db, sessions: map[string]*authdb.Session{}, memo: map[string]answer{}}, nil
}

// expect returns the reference answer to o, memoized per key.
func (r *reference) expect(o op) (answer, error) {
	if a, ok := r.memo[o.key()]; ok {
		return a, nil
	}
	s := r.sessions[o.User]
	if s == nil {
		s = r.db.Session(o.User).SetLimits(authdb.Unlimited())
		r.sessions[o.User] = s
	}
	res, err := s.Exec(o.Query)
	if err != nil {
		return answer{}, fmt.Errorf("reference %s: %q: %w", o.User, o.Query, err)
	}
	a := answerFromDB(res)
	r.memo[o.key()] = a
	return a, nil
}

// dumpQueries read every base relation in full as the administrator:
// after a reopen they must equal the reference's, which proves every
// acknowledged write (and every acknowledged delete) survived.
var dumpQueries = []string{
	"retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY)",
	"retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)",
	"retrieve (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO)",
	"retrieve (PROBE.K, PROBE.V)",
}

func dumps(db *authdb.DB) ([]string, error) {
	admin := db.Admin().SetLimits(authdb.Unlimited())
	var out []string
	for _, q := range dumpQueries {
		res, err := admin.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("dump %q: %w", q, err)
		}
		out = append(out, res.Render())
	}
	return out, nil
}

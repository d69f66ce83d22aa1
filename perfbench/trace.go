package main

// The traced pass. After each read a worker has timed through the
// client, its replayer repeats the request in-process through the
// layers' public entry points, timing each call as a span; the
// difference between the client time and the sum of the layer times is
// the transport residual. Layers without a public entry of their own
// are differences of two public calls:
//
//   - mask derivation = RetrievePlan with a cold MaskCache minus
//     RetrievePlan with a warm one;
//   - result conversion = authdb.Session.Exec minus engine.Session.Exec.
//
// The replayer keeps its own closure and mask cache (the engine's are
// private), fed the same request stream, so a read that hits the
// server's closure hits the replayer's too. Its relations are
// snapshots, not the engine's revisions, so where the server refreshes
// an entry after an append the replayer recomputes it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"authdb"
	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/wire"
	"authdb/pkg/client"
)

// maxSpans bounds the spans kept in memory; later ones are counted and
// dropped, never their layer times.
const maxSpans = 1 << 19

// span is one timed call: name, start and end (ns since the trace
// began), the span that caused it, and the request it belongs to.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layers accumulates per-layer time over the traced reads and writes.
type layers struct {
	reads                                int64
	client, parse, analyze, lookup, plan time.Duration
	eval, apply, result, render, encode  time.Duration
	decode                               time.Duration
	writes                               int64
	write                                time.Duration
}

func (l *layers) add(o layers) {
	l.reads += o.reads
	l.client += o.client
	l.parse += o.parse
	l.analyze += o.analyze
	l.lookup += o.lookup
	l.plan += o.plan
	l.eval += o.eval
	l.apply += o.apply
	l.result += o.result
	l.render += o.render
	l.encode += o.encode
	l.decode += o.decode
	l.writes += o.writes
	l.write += o.write
}

// residual is the client time the layers above do not account for:
// framing, the socket round trip, scheduling, and the server's own
// glue.
func (l *layers) residual() time.Duration {
	return l.client - (l.parse + l.analyze + l.lookup + l.plan + l.eval + l.apply +
		l.result + l.render + l.encode + l.decode)
}

// tracer records spans in memory and sums layer times.
type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
	sum     layers
	readers []*replayer
	// wsess is an administrator session on a second durable database
	// with the same fixture (write_mix only); each acknowledged write is
	// executed on it in-process to time the engine's durable write path.
	wsess *engine.Session
}

func newTracer(db *authdb.DB, workers int, shadow *authdb.DB) *tracer {
	t := &tracer{t0: time.Now()}
	m := &mirror{eng: db.Engine()}
	cl, mc := core.NewClosure(0), core.NewMaskCache(0)
	for w := 0; w < workers; w++ {
		t.readers = append(t.readers, &replayer{t: t, db: db, src: m, closure: cl, cache: mc,
			asess: map[string]*authdb.Session{}, esess: map[string]*engine.Session{}})
	}
	if shadow != nil {
		t.wsess = shadow.Engine().NewSession("admin", true)
	}
	return t
}

func (t *tracer) replayerFor(w int) *replayer {
	if t == nil {
		return nil
	}
	return t.readers[w]
}

func (t *tracer) record(req, parent uint64, name string, start, end time.Time) uint64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) add(l layers) {
	t.mu.Lock()
	t.sum.add(l)
	t.mu.Unlock()
}

// write times the in-process durable execution of an acknowledged write
// on the shadow database.
func (t *tracer) write(stmt string, sent, ack time.Time) error {
	if t.wsess == nil {
		return nil
	}
	req := t.nextID.Add(1)
	root := t.record(req, 0, "client.Exec(write)", sent, ack)
	s := time.Now()
	_, err := t.wsess.Exec(stmt)
	e := time.Now()
	t.record(req, root, "engine.Session.Exec", s, e)
	t.add(layers{writes: 1, write: e.Sub(s)})
	return err
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mirror serves the replayers' relations: snapshots taken through
// Engine.Relation once per engine version, and a relation whose content
// did not change keeps its previous snapshot, so revision pointers stay
// stable and the replayers' closure hits where the server's does.
type mirror struct {
	eng  *engine.Engine
	mu   sync.Mutex
	seq  uint64
	rels map[string]*relation.Relation // snapshots for version seq
	last map[string]*relation.Relation // newest snapshot per relation
}

// pin returns a source bound to the current version.
func (m *mirror) pin() algebra.Source {
	seq, _ := m.eng.DBVersion()
	m.mu.Lock()
	if m.rels == nil || seq != m.seq {
		m.seq, m.rels = seq, map[string]*relation.Relation{}
	}
	if m.last == nil {
		m.last = map[string]*relation.Relation{}
	}
	rels := m.rels
	m.mu.Unlock()
	return func(name string) (*relation.Relation, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if r := rels[name]; r != nil {
			return r, nil
		}
		r, err := m.eng.Relation(name)
		if err != nil {
			return nil, err
		}
		if prev := m.last[name]; prev != nil && prev.Equal(r) {
			r = prev
		}
		rels[name], m.last[name] = r, r
		return r, nil
	}
}

// replayer is one read worker's in-process twin.
type replayer struct {
	t       *tracer
	db      *authdb.DB
	src     *mirror
	closure *core.Closure
	cache   *core.MaskCache
	asess   map[string]*authdb.Session
	esess   map[string]*engine.Session
	buf     bytes.Buffer
}

func (rp *replayer) sessions(user string) (*authdb.Session, *engine.Session) {
	a := rp.asess[user]
	if a == nil {
		a = rp.db.Session(user).SetLimits(authdb.DefaultLimits())
		rp.asess[user] = a
		rp.esess[user] = rp.db.Engine().NewSession(user, false)
	}
	return a, rp.esess[user]
}

// authorizer builds an authorizer over the pinned source with a fresh
// guard under the default limits, as a server session would.
func (rp *replayer) authorizer(src algebra.Source) (*core.Authorizer, *guard.Guard) {
	eng := rp.db.Engine()
	a := core.NewAuthorizer(eng.Store(), src, eng.Options())
	g := guard.New(context.Background(), guard.DefaultLimits())
	a.Guard, a.Cache = g, rp.cache
	return a, g
}

// warm materializes o in the replayer's closure without timing it.
func (rp *replayer) warm(o op) error {
	an, err := analyze(rp.db, o.Query)
	if err != nil {
		return err
	}
	a, g := rp.authorizer(rp.src.pin())
	defer g.Close()
	a.Closure = rp.closure
	_, err = a.RetrievePlan(o.User, an.PSJ)
	return err
}

func analyze(db *authdb.DB, query string) (*cview.Analyzed, error) {
	st, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	ret, ok := st.(parser.Retrieve)
	if !ok {
		return nil, fmt.Errorf("not a retrieve: %q", query)
	}
	return cview.Analyze(ret.Def, db.Engine().Schema())
}

// read replays one read the client has just completed (res, issued at
// t0, taking d) and adds its layer times.
func (rp *replayer) read(o op, res *client.Result, t0 time.Time, d time.Duration) error {
	t := rp.t
	req := t.nextID.Add(1)
	root := t.record(req, 0, "client.Exec", t0, t0.Add(d))
	timed := func(name string, f func()) time.Duration {
		s := time.Now()
		f()
		e := time.Now()
		t.record(req, root, name, s, e)
		return e.Sub(s)
	}
	l := layers{reads: 1, client: d}
	var err error

	var st parser.Stmt
	l.parse = timed("parser.Parse", func() { st, err = parser.Parse(o.Query) })
	if err != nil {
		return err
	}
	ret, ok := st.(parser.Retrieve)
	if !ok {
		return fmt.Errorf("not a retrieve: %q", o.Query)
	}
	eng := rp.db.Engine()
	var an *cview.Analyzed
	l.analyze = timed("cview.Analyze", func() { an, err = cview.Analyze(ret.Def, eng.Schema()) })
	if err != nil {
		return err
	}
	psj, opt := an.PSJ, eng.Options()
	src := rp.src.pin()
	revs := make([]*relation.Relation, len(psj.Scans))
	for i, s := range psj.Scans {
		if revs[i], err = src(s.Rel); err != nil {
			return err
		}
	}

	a, g := rp.authorizer(src)
	var hit bool
	l.lookup = timed("core.Closure.Lookup", func() { _, hit, err = rp.closure.Lookup(a, o.User, psj, revs) })
	g.Close()
	if err != nil {
		return err
	}
	if !hit {
		if rp.cache.Get(eng.Store(), o.User, psj, opt) == nil {
			var cold, warm time.Duration
			for _, phase := range []string{"cold", "warm"} {
				a, g := rp.authorizer(src)
				dt := timed("core.Authorizer.RetrievePlan("+phase+")", func() { _, err = a.RetrievePlan(o.User, psj) })
				g.Close()
				if err != nil {
					return err
				}
				if phase == "cold" {
					cold = dt
				} else {
					warm = dt
				}
			}
			l.plan = max(0, cold-warm)
		}
		mp := rp.cache.Get(eng.Store(), o.User, psj, opt)
		if mp == nil {
			return fmt.Errorf("mask plan not cached for %s %q", o.User, o.Query)
		}
		exec := psj
		if opt.MaskPushdown && len(mp.Pushdown) > 0 && !mp.FullyAuthorized {
			exec = &algebra.PSJ{Scans: psj.Scans, Preds: append(append([]algebra.Atom(nil), psj.Preds...), mp.Pushdown...), Cols: psj.Cols}
		}
		var ans *relation.Relation
		g := guard.New(context.Background(), guard.DefaultLimits())
		l.eval = timed("algebra.EvalPSJ", func() {
			ans, err = algebra.EvalPSJ(exec, src, g, algebra.ExecOptions{UseIndexes: opt.IndexedExec}, nil)
		})
		g.Close()
		if err != nil {
			return err
		}
		l.apply = timed("core.Mask.Apply", func() { mp.Mask.Apply(ans) })
		// Materialize the entry so the replayer's closure tracks the
		// server's (untimed; the server's Store cost is in the residual).
		a, g = rp.authorizer(src)
		a.Closure = rp.closure
		_, err = a.RetrievePlan(o.User, psj)
		g.Close()
		if err != nil {
			return err
		}
	}

	// Result conversion: both calls must hit the engine's closure at the
	// same version, so a write landing between them (write_mix) retries.
	as, es := rp.sessions(o.User)
	var ares *authdb.Result
	for try := 0; ; try++ {
		if _, err = es.Exec(o.Query); err != nil {
			return err
		}
		seq0, _ := eng.DBVersion()
		ta := timed("authdb.Session.Exec", func() { ares, err = as.Exec(o.Query) })
		if err != nil {
			return err
		}
		te := timed("engine.Session.Exec", func() { _, err = es.Exec(o.Query) })
		if err != nil {
			return err
		}
		if seq1, _ := eng.DBVersion(); seq1 == seq0 || try == 2 {
			l.result = max(0, ta-te)
			break
		}
	}
	l.render = timed("authdb.Result.Render", func() { ares.Render() })

	// Encode and decode exactly the response the client received.
	resp := wire.Response{ID: 1, Text: res.Text, Rendered: res.Rendered, Permits: res.Permits,
		FullyAuthorized: res.FullyAuthorized, Denied: res.Denied}
	if res.Columns != nil {
		resp.Table = &wire.Table{Columns: res.Columns, Rows: res.Rows}
	}
	rp.buf.Reset()
	l.encode = timed("wire.WriteMsg", func() { err = wire.WriteMsg(&rp.buf, &resp) })
	if err != nil {
		return err
	}
	var back wire.Response
	l.decode = timed("wire.ReadMsg", func() { err = wire.ReadMsg(bufio.NewReader(bytes.NewReader(rp.buf.Bytes())), &back) })
	if err != nil {
		return err
	}
	t.add(l)
	return nil
}

package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"authdb"
	"authdb/internal/server"
	"authdb/pkg/client"
)

// harness is one booted instance: a durable database in its own
// directory, the real server on loopback, an administrator client, and
// per read worker one client per principal. A client is one
// connection; at most one per worker is in flight at a time.
type harness struct {
	dir       string
	db        *authdb.DB
	srv       *server.Server
	admin     *client.Client
	workers   []map[string]*client.Client
	respBytes atomic.Int64 // bytes the read clients received
}

// countingConn counts the bytes a read client receives.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// loadDurable builds the fixture in memory, exports it with Save and
// opens the export as a durable directory (OpenDir converts it in
// place). Loading statement by statement would journal and fsync each
// of the fixture's thousands of statements, and set-up time would then
// measure the disk.
func loadDurable(dir, script string) (*authdb.DB, error) {
	mem := authdb.Open()
	if _, err := mem.Admin().SetLimits(authdb.Unlimited()).ExecScript(script); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	if err := mem.Save(dir); err != nil {
		return nil, fmt.Errorf("fixture save: %w", err)
	}
	return authdb.OpenDir(dir)
}

// boot loads the fixture into a fresh durable directory, starts the
// server and dials every client.
func boot(dir, script string, users []string, workers int) (*harness, error) {
	db, err := loadDurable(dir, script)
	if err != nil {
		return nil, err
	}
	h := &harness{dir: dir, db: db}
	h.srv = server.New(db, server.Config{MaxConns: 256, Limits: authdb.DefaultLimits()})
	if err := h.srv.Start(); err != nil {
		db.Close()
		return nil, err
	}
	addr := h.srv.Addr().String()
	dial := func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", a)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: nc, n: &h.respBytes}, nil
	}
	if h.admin, err = client.Dial(addr, client.WithAdmin("admin", "")); err != nil {
		h.close()
		return nil, err
	}
	for w := 0; w < workers; w++ {
		m := make(map[string]*client.Client, len(users))
		h.workers = append(h.workers, m)
		for _, u := range users {
			c, err := client.Dial(addr, client.WithUser(u), client.WithDialer(dial))
			if err != nil {
				h.close()
				return nil, err
			}
			m[u] = c
		}
	}
	return h, nil
}

// close stops the clients and the server and closes the database.
func (h *harness) close() error {
	if h.admin != nil {
		h.admin.Close()
	}
	for _, m := range h.workers {
		for _, c := range m {
			c.Close()
		}
	}
	if h.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := h.srv.Shutdown(ctx); err != nil {
			h.db.Close()
			return fmt.Errorf("server shutdown: %w", err)
		}
	}
	return h.db.Close()
}

// spec describes one workload.
type spec struct {
	users   []string // principals the read workers authenticate as
	workers int      // read connections in flight
	// stream returns worker w's read generator for one window; the same
	// (seed, w) yields the same sequence, so the traced pass replays the
	// untraced one.
	stream func(seed int64, w int) func() op
	warm   []op // read once during set-up
	keys   int  // distinct read keys the stream can produce
	// writer runs the open-loop writer during the window; otherwise
	// probe bursts split it.
	writer bool
	// checkEach checks every response in the window; sample checks a
	// seeded share after it.
	checkEach, sample bool
}

func specFor(name string, sz sizes, seed int64) (*spec, error) {
	// Each block of len(ops) reads is a seeded permutation of ops, so
	// every seed reads the examples in the same proportions.
	pick := func(ops []op) func(seed int64, w int) func() op {
		return func(seed int64, w int) func() op {
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			var block []int
			return func() op {
				if len(block) == 0 {
					block = rng.Perm(len(ops))
				}
				o := ops[block[0]]
				block = block[1:]
				return o
			}
		}
	}
	switch name {
	case "hot_read":
		return &spec{users: []string{"Brown", "Klein"}, workers: 2, stream: pick(exampleOps),
			warm: exampleOps, keys: len(exampleOps), checkEach: true}, nil
	case "write_mix":
		// Ex1 twice per block: the median read is then an Ex1 read, not
		// the boundary between Ex1/Ex2 hits and Ex2 recomputes.
		mix := []op{exampleOps[0], exampleOps[0], exampleOps[1], exampleOps[2]}
		return &spec{users: []string{"Brown", "Klein"}, workers: 1, stream: pick(mix),
			warm: exampleOps, keys: len(exampleOps), writer: true}, nil
	case "adhoc_read":
		ks := newKeySpace(sz, seed)
		s := &spec{users: ks.principals, workers: 2, keys: ks.size(), sample: true}
		s.stream = func(seed int64, w int) func() op {
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			z := rand.NewZipf(rng, zipfS, zipfV, uint64(ks.size()-1))
			return func() op { return ks.at(int(z.Uint64())) }
		}
		for r := 0; r < min(sz.WarmKeys, ks.size()); r++ {
			s.warm = append(s.warm, ks.at(r))
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown workload %q (hot_read, adhoc_read, write_mix)", name)
}

// sample is one adhoc response kept for checking after the window.
type sample struct {
	op  op
	got answer
}

// windowStats is what one measured window observed.
type windowStats struct {
	phases        []phase         // the read phases, in order
	reads         []time.Duration // client time of each answered read
	readStarts    []time.Time     // when each of reads was sent
	readAttempted int64
	readFailed    int64
	mismatches    int64
	repeats       int64 // reads whose key was seen before in this run
	respBytes     int64
	samples       []sample
	writes        *writeStats
}

// phase is one stretch of closed-loop reads.
type phase struct{ start, end time.Time }

type writeStats struct {
	mu          sync.Mutex      // the writer and a background checkpoint
	lats        []time.Duration // from when each write was due to its ack
	late        []time.Duration // from due to send
	attempted   int64
	failed      int64
	checkpoints []time.Duration
}

// runner carries one run's state across set-up, windows and checks.
type runner struct {
	cfg    config
	spec   *spec
	script string
	h      *harness
	gen    *writeGen
	acked  []string // acknowledged writes, in order
	probes int      // probe writes issued
	// expected holds hot_read's reference answers.
	expected map[string]answer
	seenMu   sync.Mutex
	seen     map[string]bool
	tr       *tracer // nil outside the traced pass
}

func (r *runner) noteKey(o op) bool {
	r.seenMu.Lock()
	defer r.seenMu.Unlock()
	k := o.key()
	if r.seen[k] {
		return true
	}
	r.seen[k] = true
	return false
}

// setup boots an instance in dir and reads every warm-up key once.
func (r *runner) setup(dir string) (*harness, error) {
	h, err := boot(dir, r.script, r.spec.users, r.spec.workers)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, o := range r.spec.warm {
		for _, m := range h.workers {
			if _, err := m[o.User].Exec(ctx, o.Query); err != nil {
				h.close()
				return nil, fmt.Errorf("warm-up %s %q: %w", o.User, o.Query, err)
			}
		}
	}
	return h, nil
}

// reader is one read connection's state across a window's phases.
type reader struct {
	next    func() op
	rng     *rand.Rand // picks adhoc samples
	clients map[string]*client.Client
	rp      *replayer // nil outside the traced pass

	reads                                  []time.Duration
	starts                                 []time.Time
	attempted, failed, mismatches, repeats int64
	samples                                []sample
	err                                    error
}

// window measures dur of reads. write_mix's writer runs alongside; the
// read workloads instead pause ProbeBursts times for a burst of probe
// writes, which is not part of the read window.
func (r *runner) window(dur time.Duration) *windowStats {
	ws := &windowStats{writes: &writeStats{}}
	ctx, cancel := context.WithTimeout(context.Background(), dur+120*time.Second)
	defer cancel()
	readers := make([]*reader, r.spec.workers)
	for w := range readers {
		readers[w] = &reader{next: r.spec.stream(r.cfg.seed, w),
			rng: rand.New(rand.NewSource(r.cfg.seed*131 + int64(w))), clients: r.h.workers[w], rp: r.tr.replayerFor(w)}
	}
	parts := 1
	if !r.spec.writer {
		parts = r.cfg.sizes.ProbeBursts
	}
	for k := 0; k < parts; k++ {
		b0 := r.h.respBytes.Load()
		r.readPhase(ctx, dur/time.Duration(parts), readers, ws)
		ws.respBytes += r.h.respBytes.Load() - b0
		if !r.spec.writer {
			r.probe(ctx, r.cfg.sizes.ProbeWrites/parts, ws.writes)
		}
	}
	for _, rd := range readers {
		ws.reads = append(ws.reads, rd.reads...)
		ws.readStarts = append(ws.readStarts, rd.starts...)
		ws.readAttempted += rd.attempted
		ws.readFailed += rd.failed
		ws.mismatches += rd.mismatches
		ws.repeats += rd.repeats
		ws.samples = append(ws.samples, rd.samples...)
		if rd.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: read:", rd.err)
		}
	}
	return ws
}

// readPhase runs the readers closed loop for dur (and until the writer,
// if any, has issued its last write).
func (r *runner) readPhase(ctx context.Context, dur time.Duration, readers []*reader, ws *windowStats) {
	start := time.Now()
	deadline := start.Add(dur)
	var writerDone atomic.Bool
	writerDone.Store(!r.spec.writer)
	var wg sync.WaitGroup
	if r.spec.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			r.openLoop(ctx, start, dur, ws.writes)
		}()
	}
	for _, rd := range readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			for time.Now().Before(deadline) || !writerDone.Load() {
				r.read(ctx, rd)
			}
		}(rd)
	}
	wg.Wait()
	ws.phases = append(ws.phases, phase{start, time.Now()})
}

// read issues rd's next read, timed at the client, and checks or
// samples the answer.
func (r *runner) read(ctx context.Context, rd *reader) {
	o := rd.next()
	t0 := time.Now()
	res, err := rd.clients[o.User].Exec(ctx, o.Query)
	d := time.Since(t0)
	rd.attempted++
	if err != nil {
		rd.failed++
		if rd.err == nil {
			rd.err = fmt.Errorf("%s %q: %w", o.User, o.Query, err)
		}
		return
	}
	rd.reads = append(rd.reads, d)
	rd.starts = append(rd.starts, t0)
	if r.noteKey(o) {
		rd.repeats++
	}
	switch {
	case r.spec.checkEach:
		if !answerFromClient(res).equal(r.expected[o.key()]) {
			rd.mismatches++
		}
	case r.spec.sample && rd.rng.Float64() < r.cfg.sizes.CheckSample &&
		len(rd.samples) < r.cfg.sizes.MaxChecks/r.spec.workers:
		rd.samples = append(rd.samples, sample{op: o, got: answerFromClient(res)})
	}
	if rd.rp != nil {
		if err := rd.rp.read(o, res, t0, d); err != nil && rd.err == nil {
			rd.err = fmt.Errorf("trace replay: %w", err)
		}
	}
}

// openLoop is write_mix's writer: WriteRate writes per second for dur,
// each timed from when it was due. Every CheckpointEvery writes a
// DB.Checkpoint starts in the background just before the next write is
// due, so that write waits for it as it would behind a checkpointer.
func (r *runner) openLoop(ctx context.Context, start time.Time, dur time.Duration, st *writeStats) {
	rate, every := r.cfg.sizes.WriteRate, r.cfg.sizes.CheckpointEvery
	n := int(rate * dur.Seconds())
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	// Sleep to a millisecond before the due time, then spin: a timer
	// alone fires late when every P is busy, and that lateness would be
	// the generator's, not the server's.
	sleepUntil := func(t time.Time) {
		if d := time.Until(t) - time.Millisecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(t) {
		}
	}
	var ckpt sync.WaitGroup
	defer ckpt.Wait()
	for i := 0; i < n; i++ {
		sleepUntil(due(i))
		r.write(ctx, r.gen.next(), due(i), st)
		if (i+1)%every == 0 && i+1 < n {
			sleepUntil(due(i + 1).Add(-time.Millisecond))
			ckpt.Wait()
			ckpt.Add(1)
			go func() {
				defer ckpt.Done()
				r.checkpoint(st)
			}()
		}
	}
}

// probe makes n closed-loop writes to PROBE (insert+delete pairs, so
// the relation stays small): each is due when the previous one was
// acknowledged. A checkpoint follows the burst.
func (r *runner) probe(ctx context.Context, n int, st *writeStats) {
	// Collect the read phase's garbage first, so the burst does not pay
	// for it.
	runtime.GC()
	for i := 0; i < n; i++ {
		k := r.probes / 2
		stmt := fmt.Sprintf("insert into PROBE values (k%d, v)", k)
		if r.probes%2 == 1 {
			stmt = fmt.Sprintf("delete from PROBE where K = k%d", k)
		}
		r.probes++
		r.write(ctx, stmt, time.Now(), st)
	}
	r.checkpoint(st)
}

// write issues stmt through the administrator connection, timed from
// when it was due.
func (r *runner) write(ctx context.Context, stmt string, due time.Time, st *writeStats) {
	sent := time.Now()
	_, err := r.h.admin.Exec(ctx, stmt)
	ack := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if err != nil {
		st.failed++
		fmt.Fprintf(os.Stderr, "perfbench: write %q: %v\n", stmt, err)
		return
	}
	st.lats = append(st.lats, ack.Sub(due))
	st.late = append(st.late, sent.Sub(due))
	r.acked = append(r.acked, stmt)
	if r.tr != nil {
		if err := r.tr.write(stmt, sent, ack); err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: trace write %q: %v\n", stmt, err)
		}
	}
}

func (r *runner) checkpoint(st *writeStats) {
	t := time.Now()
	err := r.h.db.Checkpoint()
	d := time.Since(t)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.failed++
		fmt.Fprintf(os.Stderr, "perfbench: checkpoint: %v\n", err)
	}
	st.checkpoints = append(st.checkpoints, d)
}

// checkSamples compares the sampled adhoc answers with the reference.
func checkSamples(ref *reference, samples []sample) (int64, error) {
	var bad int64
	for _, s := range samples {
		exp, err := ref.expect(s.op)
		if err != nil {
			return bad, err
		}
		if !s.got.equal(exp) {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: mismatch %s %q\n", s.op.User, s.op.Query)
		}
	}
	return bad, nil
}

// finish is every workload's closing check. It compares the final
// answers with a reference that replayed the acknowledged writes, closes
// the instance, and reopens copies of its directory: reopen_s is the
// median open time, and the last copy must hold exactly the reference's
// relations and give the same answers as before the close.
func (r *runner) finish() (reopen []time.Duration, mismatches int64, err error) {
	ref, err := newReference(r.script, r.acked)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	before := make([]answer, len(exampleOps))
	for i, o := range exampleOps {
		c, err := client.Dial(r.h.srv.Addr().String(), client.WithUser(o.User))
		if err != nil {
			return nil, 0, err
		}
		res, err := c.Exec(ctx, o.Query)
		c.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("final %s: %w", o.User, err)
		}
		before[i] = answerFromClient(res)
		if i == 0 && r.cfg.plant && !r.spec.checkEach && !r.spec.sample {
			before[i].Rendered += "planted\n"
		}
		exp, err := ref.expect(o)
		if err != nil {
			return nil, 0, err
		}
		if !before[i].equal(exp) {
			mismatches++
			fmt.Fprintf(os.Stderr, "perfbench: final answer mismatch %s %q\n", o.User, o.Query)
		}
	}
	want, err := dumps(ref.db)
	if err != nil {
		return nil, 0, err
	}
	dir := r.h.dir
	if err := r.h.close(); err != nil {
		return nil, 0, err
	}
	r.h = nil

	for i := 0; i < r.cfg.sizes.Reopens; i++ {
		cp := filepath.Join(r.cfg.workDir, fmt.Sprintf("reopen%d", i))
		if err := copyDir(dir, cp); err != nil {
			return nil, 0, err
		}
		// Spaced out, so a short stall of the machine moves one sample,
		// not the median.
		time.Sleep(100 * time.Millisecond)
		t := time.Now()
		db, err := authdb.OpenDir(cp)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen: %w", err)
		}
		reopen = append(reopen, time.Since(t))
		if i == r.cfg.sizes.Reopens-1 {
			mismatches += checkReopened(db, want, before)
		}
		if err := db.Close(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(cp); err != nil {
			return nil, 0, err
		}
	}
	return reopen, mismatches, nil
}

// checkReopened counts the differences between a reopened database and
// what it must hold: the reference's relations, and the answers the
// server gave before the close.
func checkReopened(db *authdb.DB, want []string, before []answer) int64 {
	var bad int64
	got, err := dumps(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reopened dump:", err)
		return int64(len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: reopened relation differs: %s\n", dumpQueries[i])
		}
	}
	for i, o := range exampleOps {
		res, err := db.Session(o.User).Exec(o.Query)
		if err != nil || !answerFromDB(res).equal(before[i]) {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: answer changed across reopen: %s %q (%v)\n", o.User, o.Query, err)
		}
	}
	return bad
}

// copyDir copies a closed durable directory tree and syncs the copy,
// so the timed reopen does not also pay for flushing the copy.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

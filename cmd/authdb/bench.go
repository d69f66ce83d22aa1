package main

// The bench subcommand: a reproducible throughput and latency harness
// for concurrent masked retrieval. It loads the paper's schema, data,
// and views scaled up with synthetic rows and a grant-heavy permission
// set (a dozen views per relation, all permitted to both users — the
// regime where authorization dominates per-query cost), then measures
// the paper's three worked-example queries end to end (parse,
// dual-pipeline authorization, masking):
//
//   - a serial no-cache baseline (the recompute-every-retrieve
//     configuration this repository had before the mask cache);
//   - throughput and p50/p99 latency at increasing numbers of
//     concurrent read sessions, mask cache on;
//   - the intra-query parallel evaluator, serial vs GOMAXPROCS
//     workers, at one session.
//
// Results go to a JSON file so runs are comparable across commits.
//
//	authdb bench [-dur 1s] [-o BENCH_parallel.json] [-levels 1,4,16]

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authdb/internal/core"
	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/workload"
)

// Workload scale. EMPLOYEE and the title count size Example 3's
// self-join; the view count per relation sizes the meta-relation
// products that dominate uncached authorization.
const (
	benchEmployees   = 300
	benchProjects    = 600
	benchAssignments = 1200
	benchTitles      = 30
	benchExtraViews  = 8
)

type benchLevel struct {
	Sessions        int     `json:"sessions"`
	MaskCache       bool    `json:"mask_cache"`
	Ops             int64   `json:"ops"`
	QPS             float64 `json:"qps"`
	P50Micros       float64 `json:"p50_us"`
	P99Micros       float64 `json:"p99_us"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// allocsSince returns the heap allocation count delta per operation
// across a measurement window. Process-global, so background allocation
// noise is shared by every configuration being compared.
func allocsSince(m0 *runtime.MemStats, ops int64) float64 {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if ops == 0 {
		return 0
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

type benchReport struct {
	Generated    string         `json:"generated"`
	GoMaxProcs   int            `json:"gomaxprocs"`
	DurationMS   int64          `json:"duration_ms_per_level"`
	Rows         map[string]int `json:"rows"`
	ViewsPerUser int            `json:"views_per_user"`
	Queries      []string       `json:"queries"`
	// Baseline is one serial session with the mask cache disabled: the
	// configuration predating this harness, against which every level's
	// speedup_vs_serial is computed.
	Baseline     benchLevel   `json:"serial_baseline"`
	Levels       []benchLevel `json:"levels"`
	ParallelEval struct {
		Workers    int     `json:"workers"`
		SerialMS   float64 `json:"serial_ms_per_query"`
		ParallelMS float64 `json:"parallel_ms_per_query"`
		Speedup    float64 `json:"speedup"`
	} `json:"parallel_eval"`
	MaskCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"mask_cache"`
}

// benchEngine builds the paper fixture scaled with synthetic rows and
// the grant-heavy view set.
func benchEngine() (*engine.Engine, error) {
	e := engine.New(core.DefaultOptions())
	admin := e.NewSession("admin", true)
	if _, err := admin.ExecScript(benchFixtureScript()); err != nil {
		return nil, err
	}
	return e, nil
}

// benchFixtureScript is the statement script behind benchEngine,
// shared with the bench-serve harness: the paper fixture scaled with
// synthetic rows and the grant-heavy view set.
func benchFixtureScript() string {
	var b strings.Builder
	b.WriteString(workload.PaperScript)
	for i := 0; i < benchEmployees; i++ {
		fmt.Fprintf(&b, "insert into EMPLOYEE values (e%d, t%d, %d);\n",
			i, i%benchTitles, 20000+(i*37)%30000)
	}
	for i := 0; i < benchProjects; i++ {
		sponsor := "Acme"
		if i%3 != 0 {
			sponsor = fmt.Sprintf("s%d", i%7)
		}
		fmt.Fprintf(&b, "insert into PROJECT values (p%d, %s, %d);\n",
			i, sponsor, (i*7919)%500000)
	}
	for i := 0; i < benchAssignments; i++ {
		fmt.Fprintf(&b, "insert into ASSIGNMENT values (e%d, p%d);\n",
			(i*13)%benchEmployees, (i*31)%benchProjects)
	}
	// Narrow extra views over each relation, all permitted to both
	// users: they grant little data but multiply the meta-relation work
	// per retrieve, the way a real system's accumulated grants do.
	for k := 0; k < benchExtraViews; k++ {
		fmt.Fprintf(&b, "view BV%d (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY >= %d;\n",
			k, 49000+k*80)
		fmt.Fprintf(&b, "view PV%d (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= %d;\n",
			k, 490000+k*800)
		fmt.Fprintf(&b, "view AV%d (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO, PROJECT.NUMBER) "+
			"where ASSIGNMENT.P_NO = PROJECT.NUMBER and PROJECT.BUDGET >= %d;\n",
			k, 480000+k*1000)
		for _, u := range []string{"Brown", "Klein"} {
			fmt.Fprintf(&b, "permit BV%d to %s;\npermit PV%d to %s;\npermit AV%d to %s;\n",
				k, u, k, u, k, u)
		}
	}
	return b.String()
}

// benchOp is one (user, query) pair drawn from the paper's examples.
type benchOp struct {
	user  string
	query string
}

var benchOps = []benchOp{
	{"Brown", workload.Example1Query},
	{"Klein", workload.Example2Query},
	{"Brown", workload.Example3Query},
}

// sessionSet opens one session per distinct bench user with the given
// intra-query parallelism.
func sessionSet(e *engine.Engine, parallelism int) map[string]*engine.Session {
	out := make(map[string]*engine.Session)
	for _, op := range benchOps {
		if _, ok := out[op.user]; ok {
			continue
		}
		s := e.NewSession(op.user, false)
		l := guard.DefaultLimits()
		l.Parallelism = parallelism
		s.SetLimits(l)
		out[op.user] = s
	}
	return out
}

// runLevel drives n concurrent reader goroutines for the duration and
// returns total ops plus sorted per-op latencies.
func runLevel(e *engine.Engine, n int, dur time.Duration) (int64, []time.Duration, error) {
	var (
		wg      sync.WaitGroup
		ops     atomic.Int64
		firstMu sync.Mutex
		firstEr error
	)
	lats := make([][]time.Duration, n)
	deadline := time.Now().Add(dur)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Session-level concurrency is what the levels measure, so
			// each statement evaluates serially.
			sessions := sessionSet(e, 1)
			local := make([]time.Duration, 0, 4096)
			for i := 0; time.Now().Before(deadline); i++ {
				op := benchOps[(w+i)%len(benchOps)]
				start := time.Now()
				if _, err := sessions[op.user].Exec(op.query); err != nil {
					firstMu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					firstMu.Unlock()
					return
				}
				local = append(local, time.Since(start))
				ops.Add(1)
			}
			lats[w] = local
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		return 0, nil, firstEr
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return ops.Load(), all, nil
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}

func measureLevel(e *engine.Engine, n int, dur time.Duration, cached bool) (benchLevel, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops, lats, err := runLevel(e, n, dur)
	if err != nil {
		return benchLevel{}, err
	}
	return benchLevel{
		Sessions:    n,
		MaskCache:   cached,
		Ops:         ops,
		QPS:         float64(ops) / dur.Seconds(),
		P50Micros:   percentile(lats, 0.50),
		P99Micros:   percentile(lats, 0.99),
		AllocsPerOp: allocsSince(&m0, ops),
	}, nil
}

// runParallelEval times Example 3 (the self-join) at one session,
// serial vs GOMAXPROCS workers, with the mask cache on so the actual
// side — where the parallel operators live — dominates.
func runParallelEval(e *engine.Engine, iters int) (serialMS, parallelMS float64, err error) {
	time1 := func(par int) (float64, error) {
		sessions := sessionSet(e, par)
		op := benchOps[2]
		if _, err := sessions[op.user].Exec(op.query); err != nil { // warm
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sessions[op.user].Exec(op.query); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / float64(iters) / float64(time.Millisecond), nil
	}
	if serialMS, err = time1(1); err != nil {
		return 0, 0, err
	}
	if parallelMS, err = time1(runtime.GOMAXPROCS(0)); err != nil {
		return 0, 0, err
	}
	return serialMS, parallelMS, nil
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	dur := fs.Duration("dur", time.Second, "measurement duration per concurrency level")
	out := fs.String("o", "BENCH_parallel.json", "output JSON path")
	levelsFlag := fs.String("levels", "1,4,16", "comma-separated concurrent session counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var levels []int
	for _, part := range strings.Split(*levelsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -levels entry %q\n", part)
			return 2
		}
		levels = append(levels, n)
	}

	e, err := benchEngine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench setup: %v\n", err)
		return 1
	}
	// This harness measures the mask cache and the concurrent evaluator;
	// with the closure on, repeats would be served from materialized
	// state and neither layer would be exercised. perfbench's hot_read
	// workload owns the closure's numbers.
	e.SetMaskClosureEnabled(false)
	rep := &benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DurationMS: dur.Milliseconds(),
		Rows: map[string]int{
			"EMPLOYEE":   benchEmployees + 3,
			"PROJECT":    benchProjects + 3,
			"ASSIGNMENT": benchAssignments + 6,
		},
		ViewsPerUser: 3*benchExtraViews + 3,
	}
	for _, op := range benchOps {
		rep.Queries = append(rep.Queries,
			op.user+": "+strings.Join(strings.Fields(op.query), " "))
	}

	// Serial no-cache baseline first: one session, every retrieve
	// rederives its mask.
	e.SetMaskCacheEnabled(false)
	if _, _, err := runLevel(e, 1, *dur/4); err != nil { // warm indexes
		fmt.Fprintf(os.Stderr, "bench warmup: %v\n", err)
		return 1
	}
	rep.Baseline, err = measureLevel(e, 1, *dur, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench baseline: %v\n", err)
		return 1
	}
	rep.Baseline.SpeedupVsSerial = 1
	fmt.Printf("baseline (serial, no cache): qps=%-8.1f p50=%.0fµs p99=%.0fµs\n",
		rep.Baseline.QPS, rep.Baseline.P50Micros, rep.Baseline.P99Micros)

	// The measured levels, mask cache on.
	e.SetMaskCacheEnabled(true)
	if _, _, err := runLevel(e, 1, *dur/4); err != nil { // warm the cache
		fmt.Fprintf(os.Stderr, "bench warmup: %v\n", err)
		return 1
	}
	for _, n := range levels {
		lv, err := measureLevel(e, n, *dur, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench level %d: %v\n", n, err)
			return 1
		}
		if rep.Baseline.QPS > 0 {
			lv.SpeedupVsSerial = lv.QPS / rep.Baseline.QPS
		}
		rep.Levels = append(rep.Levels, lv)
		fmt.Printf("sessions=%-3d qps=%-8.1f p50=%.0fµs p99=%.0fµs speedup=%.2fx\n",
			n, lv.QPS, lv.P50Micros, lv.P99Micros, lv.SpeedupVsSerial)
	}

	serialMS, parallelMS, err := runParallelEval(e, 20)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench parallel eval: %v\n", err)
		return 1
	}
	rep.ParallelEval.Workers = runtime.GOMAXPROCS(0)
	rep.ParallelEval.SerialMS = serialMS
	rep.ParallelEval.ParallelMS = parallelMS
	if parallelMS > 0 {
		rep.ParallelEval.Speedup = serialMS / parallelMS
	}
	fmt.Printf("parallel eval (Example 3, %d workers): serial %.2fms → parallel %.2fms (%.2fx)\n",
		rep.ParallelEval.Workers, serialMS, parallelMS, rep.ParallelEval.Speedup)

	rep.MaskCache.Hits, rep.MaskCache.Misses, _ = e.MaskCacheStats()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return 0
}

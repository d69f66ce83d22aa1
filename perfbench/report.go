package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"authdb"
	"authdb/internal/core"
)

// counters is a snapshot of the engine's and the Go runtime's counters;
// per-layer ratios are deltas between two snapshots.
type counters struct {
	closure             core.ClosureStats
	mcHits, mcMisses    uint64
	delivered, withheld int64
	walAppends          int64
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	// hostBusy and hostSteal are the machine's busy and stolen CPU ticks
	// (Linux /proc/stat; zero elsewhere).
	hostBusy, hostSteal int64
}

func readCounters(db *authdb.DB) counters {
	eng := db.Engine()
	met := db.Metrics()
	c := counters{
		closure:    eng.MaskClosureStats(),
		delivered:  met.Counter("authdb_cells_delivered_total").Value(),
		withheld:   met.Counter("authdb_cells_withheld_total").Value(),
		walAppends: met.Counter("authdb_wal_appends_total").Value(),
	}
	c.mcHits, c.mcMisses, _ = eng.MaskCacheStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
		c.totalCPU = samples[1].Value.Float64()
	}
	c.hostBusy, c.hostSteal = hostTicks()
	return c
}

// hostTicks reads the machine's CPU ticks spent busy (user, nice,
// system, irq, softirq) and stolen by the hypervisor from /proc/stat,
// or zeros where it is unavailable.
func hostTicks() (busy, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// stealShare is the share of the machine's CPU time that the hypervisor
// took from it between two snapshots: time the benchmark wanted to run
// and could not, which slows every figure of the run.
func stealShare(c0, c1 counters) float64 {
	steal := float64(c1.hostSteal - c0.hostSteal)
	return ratio(steal, float64(c1.hostBusy-c0.hostBusy)+steal)
}

// percentile returns the p-quantile (0..1) of ds by nearest rank.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(float64(len(s))*p+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// sliceReads is how many reads, consecutive by send time, share one
// slice of slicedPercentile: the 99th percentile of a slice then has
// ten reads beyond it.
const sliceReads = 1000

// slicedPercentile returns the median over consecutive slices of
// sliceReads reads (in send order) of each slice's p-quantile; a last
// partial slice joins the one before it. A stall of the shared host
// then moves the few slices it falls in, not the run's tail. With fewer
// than two slices' worth of reads it is the plain p-quantile.
func slicedPercentile(ds []time.Duration, starts []time.Time, p float64) (time.Duration, int) {
	if len(ds) < 2*sliceReads {
		return percentile(ds, p), 1
	}
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return starts[a].Compare(starts[b]) })
	var per []time.Duration
	for lo := 0; lo+sliceReads <= len(idx); lo += sliceReads {
		hi := lo + sliceReads
		if len(idx)-hi < sliceReads {
			hi = len(idx)
		}
		part := make([]time.Duration, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			part = append(part, ds[i])
		}
		per = append(per, percentile(part, p))
	}
	return median(per), len(per)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rateReads is how many consecutive completions one rate sample of
// medianRate spans.
const rateReads = 200

// medianRate returns the median read rate over groups of rateReads
// consecutive completions within a read phase, and the number of
// groups: each group's rate is rateReads over the time from the
// completion before it to its last. Like slicedPercentile, it lets a
// stall of the shared host move the groups it falls in, not the run's
// rate. A phase with too few reads for a group counts as one rate of
// its reads over its length.
func medianRate(ds []time.Duration, starts []time.Time, phases []phase) (float64, int) {
	var rates []float64
	for _, ph := range phases {
		var ends []time.Time
		for i, d := range ds {
			if !starts[i].Before(ph.start) && starts[i].Before(ph.end) {
				ends = append(ends, starts[i].Add(d))
			}
		}
		slices.SortFunc(ends, time.Time.Compare)
		if len(ends) <= rateReads {
			rates = append(rates, float64(len(ends))/ph.end.Sub(ph.start).Seconds())
			continue
		}
		for i := 0; i+rateReads < len(ends); i += rateReads {
			rates = append(rates, rateReads/ends[i+rateReads].Sub(ends[i]).Seconds())
		}
	}
	if len(rates) == 0 {
		return 0, 0
	}
	slices.Sort(rates)
	return rates[len(rates)/2], len(rates)
}

// endToEnd computes the metrics a user of the server sees, from the
// untraced window.
func endToEnd(ws *windowStats, setups []time.Duration, heapMB float64) map[string]metric {
	p99, _ := slicedPercentile(ws.reads, ws.readStarts, 0.99)
	qps, _ := medianRate(ws.reads, ws.readStarts, ws.phases)
	return map[string]metric{
		"setup_s":             {median(setups).Seconds(), "s"},
		"read_p50_ms":         {ms(percentile(ws.reads, 0.50)), "ms"},
		"read_p99_ms":         {ms(p99), "ms"},
		"read_qps":            {qps, "1/s"},
		"resp_bytes_per_read": {ratio(float64(ws.respBytes), float64(ws.readAttempted)), "B"},
		"heap_live_mb":        {heapMB, "MB"},
	}
}

// perLayer computes the per-layer metrics: self times per read from the
// traced window, counts and ratios from counter deltas over the
// untraced window. The write latencies and the reopen time are here,
// not end to end, because on a shared disk their run-to-run spread
// exceeds any bound the benchmark may set (see README.md).
func perLayer(ws, tws *windowStats, l layers, c0, c1 counters, reopens []time.Duration) map[string]metric {
	perRead := func(d time.Duration) float64 { return ratio(us(d), float64(l.reads)) }
	writes := float64(len(ws.writes.lats))
	reads := float64(len(ws.reads))
	lookups := float64(c1.closure.Hits + c1.closure.Misses - c0.closure.Hits - c0.closure.Misses)
	mcLookups := float64(c1.mcHits + c1.mcMisses - c0.mcHits - c0.mcMisses)
	cells := float64(c1.delivered + c1.withheld - c0.delivered - c0.withheld)
	var untracedMean time.Duration
	for _, d := range ws.reads {
		untracedMean += d
	}
	if len(ws.reads) > 0 {
		untracedMean /= time.Duration(len(ws.reads))
	}
	var ckpt time.Duration
	for _, d := range append(slices.Clone(ws.writes.checkpoints), tws.writes.checkpoints...) {
		ckpt += d
	}
	nckpt := float64(len(ws.writes.checkpoints) + len(tws.writes.checkpoints))
	attempted := ws.readAttempted + tws.readAttempted + ws.writes.attempted + tws.writes.attempted
	failed := ws.readFailed + tws.readFailed + ws.mismatches + tws.mismatches + ws.writes.failed + tws.writes.failed
	return map[string]metric{
		"parser.parse_us":          {perRead(l.parse), "us"},
		"cview.analyze_us":         {perRead(l.analyze), "us"},
		"core.closure_lookup_us":   {perRead(l.lookup), "us"},
		"core.mask_plan_us":        {perRead(l.plan), "us"},
		"algebra.eval_us":          {perRead(l.eval), "us"},
		"core.mask_apply_us":       {perRead(l.apply), "us"},
		"authdb.result_us":         {perRead(l.result), "us"},
		"authdb.render_us":         {perRead(l.render), "us"},
		"wire.encode_us":           {perRead(l.encode), "us"},
		"wire.decode_us":           {perRead(l.decode), "us"},
		"server.transport_us":      {perRead(l.residual()), "us"},
		"trace.read_client_us":     {perRead(l.client), "us"},
		"trace.overhead_ratio":     {ratio(perRead(l.client), us(untracedMean)), "ratio"},
		"engine.write_us":          {ratio(us(l.write), float64(l.writes)), "us"},
		"engine.checkpoint_ms":     {ratio(ms(ckpt), nckpt), "ms"},
		"core.closure_hit_ratio":   {ratio(float64(c1.closure.Hits-c0.closure.Hits), lookups), "ratio"},
		"core.closure_lookups":     {lookups, "count"},
		"core.maskcache_hit_ratio": {ratio(float64(c1.mcHits-c0.mcHits), mcLookups), "ratio"},
		"core.maskcache_lookups":   {mcLookups, "count"},
		"bench.repeat_key_share":   {ratio(float64(ws.repeats), reads), "ratio"},
		"core.closure_refreshes_per_write": {
			ratio(float64(c1.closure.Refreshes-c0.closure.Refreshes), writes), "1/write"},
		"core.closure_invalidations_per_write": {
			ratio(float64(c1.closure.Invalidations()-c0.closure.Invalidations()), writes), "1/write"},
		"core.closure_resident_rows":  {float64(c1.closure.ResidentRows), "count"},
		"engine.cells_withheld_ratio": {ratio(float64(c1.withheld-c0.withheld), cells), "ratio"},
		"wal.appends_per_write":       {ratio(float64(c1.walAppends-c0.walAppends), writes), "1/write"},
		"go.allocs_per_op":            {ratio(float64(c1.mallocs-c0.mallocs), reads+writes), "count"},
		"go.alloc_bytes_per_op":       {ratio(float64(c1.allocBytes-c0.allocBytes), reads+writes), "B"},
		"go.gc_cpu_fraction":          {ratio(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU), "ratio"},
		"bench.gen_late_p99_ms":       {ms(percentile(ws.writes.late, 0.99)), "ms"},
		"failed_ratio":                {ratio(float64(failed), float64(attempted)), "ratio"},
		"write_p50_ms":                {ms(percentile(ws.writes.lats, 0.50)), "ms"},
		"write_p99_ms":                {ms(percentile(ws.writes.lats, 0.99)), "ms"},
		"reopen_s":                    {median(reopens).Seconds(), "s"},
	}
}

// report is the stamp printed before the result line: what ran, where,
// on which code, and the diagnostics behind the metrics.
func report(cfg config, sp *spec, backend string, acked []string, res *result, ws *windowStats) map[string]any {
	cores := runtime.NumCPU()
	_, p99Slices := slicedPercentile(ws.reads, ws.readStarts, 0.99)
	_, qpsGroups := medianRate(ws.reads, ws.readStarts, ws.phases)
	var elapsed time.Duration
	for _, ph := range ws.phases {
		elapsed += ph.end.Sub(ph.start)
	}
	rep := map[string]any{
		"workload":           cfg.workload,
		"seed":               cfg.seed,
		"seconds":            cfg.seconds,
		"traced":             cfg.trace,
		"commit":             gitCommit(cfg.root),
		"source_sha256":      sourceDigest(cfg.root),
		"go_version":         runtime.Version(),
		"nproc":              cores,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"single_core":        cores == 1 || runtime.GOMAXPROCS(0) == 1,
		"backend":            backend,
		"group_commit":       false,
		"options":            authdb.DefaultOptions(),
		"limits":             authdb.DefaultLimits(),
		"sizes":              cfg.sizes,
		"read_conns":         sp.workers,
		"read_principals":    len(sp.users),
		"key_space":          sp.keys,
		"closure_capacity":   core.DefaultClosureCap,
		"maskcache_capacity": core.DefaultMaskCacheCap,
		"reads":              len(ws.reads),
		"read_p99_slices":    p99Slices,
		"read_p99_ms_window": ms(percentile(ws.reads, 0.99)),
		"read_qps_groups":    qpsGroups,
		"read_qps_window":    ratio(float64(len(ws.reads)), elapsed.Seconds()),
		"repeat_key_share":   ratio(float64(ws.repeats), float64(len(ws.reads))),
		"writes_acked":       len(acked),
		"attempted":          res.Attempted,
		"failed":             res.Failed,
		"failed_ratio":       ratio(float64(res.Failed), float64(res.Attempted)),
		"reference":          "in-memory authdb.DB: mask cache, closure and mask pushdown off",
	}
	if cfg.trace {
		rep["trace_out"] = cfg.traceOut
		rep["derived_layers"] = map[string]string{
			"core.mask_plan_us":   "RetrievePlan(cold MaskCache) - RetrievePlan(warm MaskCache), closure misses only",
			"authdb.result_us":    "authdb.Session.Exec - engine.Session.Exec",
			"server.transport_us": "client time - sum of the layers above",
		}
	}
	return rep
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout without .git reports "unknown" and the source digest
// identifies the code instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// report names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

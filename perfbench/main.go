// Command perfbench is the repository's benchmark: it boots the real
// server in-process on loopback over a durable database, drives it
// through pkg/client, checks the answers against a naive reference,
// and prints every metric by name with its unit. See README.md.
//
//	bash perfbench/run.sh --workload hot_read --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}. The run exits non-zero
// when any operation failed or any answer differed from the reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"authdb"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	// workDir holds the run's durable directories; removed at the end.
	workDir string
	// traceOut receives the traced pass's spans as JSON lines.
	traceOut string
	// root is the repository checkout, for the source stamp; the
	// command runs from it.
	root string
	// plant corrupts one checked answer before comparison, so tests can
	// prove a wrong answer is caught.
	plant bool
}

// openShadow builds the traced write_mix's shadow: a durable database
// holding the fixture plus the writes acknowledged so far.
func openShadow(dir, script string, writes []string) (*authdb.DB, error) {
	db, err := loadDurable(dir, script)
	if err != nil {
		return nil, err
	}
	admin := db.Admin().SetLimits(authdb.Unlimited())
	for _, w := range writes {
		if _, err := admin.Exec(w); err != nil {
			db.Close()
			return nil, fmt.Errorf("shadow replay %q: %w", w, err)
		}
	}
	return db, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout))
}

func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "hot_read, adhoc_read or write_mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.sizes = defaultSizes()
	cfg.root = "."
	cfg.workDir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if blob, err := json.Marshal(map[string]any{"report": rep}); err == nil {
		fmt.Fprintln(stdout, string(blob))
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// run performs one benchmark run: set-up (repeated; setup_s is the
// median), the measured window (untraced, or untraced then traced),
// the answer checks, the write probe, and the reopen checks.
func run(cfg config) (*result, map[string]any, error) {
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	sz := cfg.sizes
	sp, err := specFor(cfg.workload, sz, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	var principals []string
	if cfg.workload == "adhoc_read" {
		principals = sp.users
	}
	r := &runner{cfg: cfg, spec: sp, script: fixtureScript(sz, principals, cfg.seed),
		gen: newWriteGen(sz, cfg.seed), seen: map[string]bool{}}
	for _, o := range sp.warm {
		r.seen[o.key()] = true
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	// Set-up, several times: fixture load, server start and warm-up.
	repeats := sz.SetupRepeats
	if cfg.trace {
		repeats = 1
	}
	var setups []time.Duration
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("db%d", i))
		t := time.Now()
		h, err := r.setup(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t))
		if i < repeats-1 {
			if err := h.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			continue
		}
		r.h = h
	}
	defer func() {
		if r.h != nil {
			r.h.close()
		}
	}()

	var mismatches int64
	if sp.checkEach {
		ref, err := newReference(r.script, nil)
		if err != nil {
			return nil, nil, err
		}
		r.expected = map[string]answer{}
		for _, o := range sp.warm {
			if r.expected[o.key()], err = ref.expect(o); err != nil {
				return nil, nil, err
			}
		}
		if cfg.plant {
			a := r.expected[exampleOps[0].key()]
			a.Rendered += "planted\n"
			r.expected[exampleOps[0].key()] = a
		}
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	runtime.GC()
	c0 := readCounters(r.h.db)
	ws := r.window(dur)
	c1 := readCounters(r.h.db)
	backend := r.h.db.StorageBackend()
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, leaving the live heap.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	var tws *windowStats
	var lay layers
	var dropped int64
	if cfg.trace {
		var shadow *authdb.DB
		if sp.writer {
			if shadow, err = openShadow(filepath.Join(cfg.workDir, "shadow"), r.script, r.acked); err != nil {
				return nil, nil, err
			}
			defer shadow.Close()
		}
		r.tr = newTracer(r.h.db, sp.workers, shadow)
		for _, rp := range r.tr.readers {
			for _, o := range sp.warm {
				if err := rp.warm(o); err != nil {
					return nil, nil, fmt.Errorf("trace warm-up: %w", err)
				}
			}
		}
		tws = r.window(dur)
		if err := r.tr.dump(cfg.traceOut); err != nil {
			return nil, nil, fmt.Errorf("trace output: %w", err)
		}
		lay, dropped = r.tr.sum, r.tr.dropped
		r.tr = nil
	}

	if sp.sample {
		ref, err := newReference(r.script, nil)
		if err != nil {
			return nil, nil, err
		}
		samples := ws.samples
		if tws != nil {
			samples = append(samples, tws.samples...)
		}
		if cfg.plant && len(samples) > 0 {
			samples[0].got.Rendered += "planted\n"
		}
		bad, err := checkSamples(ref, samples)
		if err != nil {
			return nil, nil, err
		}
		mismatches += bad
	}

	reopen, bad, err := r.finish()
	if err != nil {
		return nil, nil, err
	}
	mismatches += bad

	attempted := ws.readAttempted + ws.writes.attempted
	failed := ws.readFailed + ws.mismatches + ws.writes.failed + mismatches
	if tws != nil {
		attempted += tws.readAttempted + tws.writes.attempted
		failed += tws.readFailed + tws.mismatches + tws.writes.failed
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if cfg.trace {
		res.Metrics = perLayer(ws, tws, lay, c0, c1, reopen)
	} else {
		res.Metrics = endToEnd(ws, setups, heapMB)
	}
	rep := report(cfg, sp, backend, r.acked, res, ws)
	rep["setup_s_each"], rep["reopen_s_each"] = seconds(setups), seconds(reopen)
	rep["host_steal_share"] = stealShare(c0, c1)
	if cfg.trace {
		rep["trace_spans_dropped"] = dropped
	}
	return res, rep, nil
}

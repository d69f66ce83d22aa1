package main

// The bench-serve subcommand: end-to-end throughput and latency of the
// network server — parse, authorization, masking, plus framing and TCP
// round trips — at increasing numbers of concurrent client
// connections. It boots an in-process server on a loopback ephemeral
// port over the same scaled fixture as `bench` and drives it with
// pkg/client, one connection per worker, measuring the paper's worked
// example queries as each principal.
//
// A second pass measures the write path: concurrent admin connections
// inserting unique rows into a durable database, with the WAL's group
// commit off and then on — the before/after of batching concurrent
// appends into one fsync.
//
// Results go to a JSON file so runs are comparable across commits.
//
//	authdb bench-serve [-dur 2s] [-o BENCH_serve.json] [-conns 1,16,64]

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"authdb"
	"authdb/internal/server"
	"authdb/pkg/client"
)

type serveLevel struct {
	Conns int `json:"conns"`
	// GoMaxProcs is the effective GOMAXPROCS while this level ran; the
	// scaling matrix (bench-mvcc) varies it per level, so the top-level
	// report field alone would misattribute the numbers.
	GoMaxProcs int     `json:"gomaxprocs"`
	Ops        int64   `json:"ops"`
	Errors     int64   `json:"errors"`
	QPS        float64 `json:"qps"`
	P50Micros  float64 `json:"p50_us"`
	P95Micros  float64 `json:"p95_us"`
	P99Micros  float64 `json:"p99_us"`
}

type writeLevel struct {
	Conns       int     `json:"conns"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GroupCommit bool    `json:"group_commit"`
	Ops         int64   `json:"ops"`
	Errors      int64   `json:"errors"`
	QPS         float64 `json:"qps"`
	P50Micros   float64 `json:"p50_us"`
	P95Micros   float64 `json:"p95_us"`
	P99Micros   float64 `json:"p99_us"`
}

type serveReport struct {
	Generated  string         `json:"generated"`
	GoMaxProcs int            `json:"gomaxprocs"`
	DurationMS int64          `json:"duration_ms_per_level"`
	Rows       map[string]int `json:"rows"`
	Queries    []string       `json:"queries"`
	Levels     []serveLevel   `json:"levels"`
	// WriteLevels measure durable inserts over the wire, group commit
	// off then on, at the same connection counts.
	WriteLevels []writeLevel `json:"write_levels"`
}

func runBenchServe(args []string) int {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	dur := fs.Duration("dur", 2*time.Second, "measurement duration per connection level")
	out := fs.String("o", "BENCH_serve.json", "output JSON file")
	levels := fs.String("conns", "1,16,64", "comma-separated connection counts")
	fs.Parse(args)

	db := authdb.Open()
	if _, err := db.Admin().ExecScript(benchFixtureScript()); err != nil {
		fmt.Fprintln(os.Stderr, "fixture:", err)
		return 1
	}
	srv := server.New(db, server.Config{MaxConns: 1024, Limits: authdb.DefaultLimits()})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	report := serveReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DurationMS: dur.Milliseconds(),
		Rows: map[string]int{
			"EMPLOYEE":   benchEmployees,
			"PROJECT":    benchProjects,
			"ASSIGNMENT": benchAssignments,
		},
	}
	for _, op := range benchOps {
		report.Queries = append(report.Queries, op.user+": "+op.query)
	}

	var conns []int
	for _, field := range strings.Split(*levels, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad connection count %q\n", field)
			return 1
		}
		conns = append(conns, n)
	}

	for _, n := range conns {
		lvl, err := runServeLevel(addr, n, *dur)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("conns=%-3d qps=%9.1f p50=%7.0fµs p95=%7.0fµs p99=%7.0fµs ops=%d errors=%d\n",
			lvl.Conns, lvl.QPS, lvl.P50Micros, lvl.P95Micros, lvl.P99Micros, lvl.Ops, lvl.Errors)
		report.Levels = append(report.Levels, lvl)
	}

	for _, gc := range []bool{false, true} {
		for _, n := range conns {
			lvl, err := runWriteLevel(gc, n, *dur)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("write conns=%-3d group_commit=%-5v qps=%9.1f p50=%7.0fµs p95=%7.0fµs p99=%7.0fµs ops=%d errors=%d\n",
				lvl.Conns, lvl.GroupCommit, lvl.QPS, lvl.P50Micros, lvl.P95Micros, lvl.P99Micros, lvl.Ops, lvl.Errors)
			report.WriteLevels = append(report.WriteLevels, lvl)
		}
	}

	blob, _ := json.MarshalIndent(report, "", "  ")
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("wrote", *out)
	return 0
}

// runWriteLevel boots a fresh durable database (in a throwaway
// directory) with group commit set as given and drives n admin
// connections inserting unique rows for dur. Every insert is journaled
// and fsynced before its response, so this measures exactly what group
// commit batches.
func runWriteLevel(groupCommit bool, n int, dur time.Duration) (writeLevel, error) {
	dir, err := os.MkdirTemp("", "authdb-bench-write-*")
	if err != nil {
		return writeLevel{}, err
	}
	defer os.RemoveAll(dir)
	db, err := authdb.OpenDir(dir)
	if err != nil {
		return writeLevel{}, err
	}
	defer db.Close()
	if _, err := db.Admin().ExecScript("relation WRITES (K, V) key (K);\n"); err != nil {
		return writeLevel{}, err
	}
	db.SetGroupCommit(groupCommit)
	srv := server.New(db, server.Config{MaxConns: 1024, Limits: authdb.DefaultLimits()})
	if err := srv.Start(); err != nil {
		return writeLevel{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	clients := make([]*client.Client, n)
	for i := range clients {
		c, err := client.Dial(addr, client.WithAdmin("admin", ""))
		if err != nil {
			return writeLevel{}, fmt.Errorf("dial %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	var wg sync.WaitGroup
	lats := make([][]time.Duration, n)
	var errs int64
	var errMu sync.Mutex
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				stmt := fmt.Sprintf("insert into WRITES values (w%d_%d, v)", i, j)
				t0 := time.Now()
				if _, err := c.Exec(context.Background(), stmt); err != nil {
					errMu.Lock()
					errs++
					errMu.Unlock()
					continue
				}
				lats[i] = append(lats[i], time.Since(t0))
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(p*float64(len(all)-1))].Microseconds())
	}
	return writeLevel{
		Conns:       n,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GroupCommit: groupCommit,
		Ops:         int64(len(all)),
		Errors:      errs,
		QPS:         float64(len(all)) / elapsed.Seconds(),
		P50Micros:   pct(0.50),
		P95Micros:   pct(0.95),
		P99Micros:   pct(0.99),
	}, nil
}

// runServeLevel drives n client connections against addr for dur; each
// worker owns one connection and cycles through the worked-example
// query of its principal.
func runServeLevel(addr string, n int, dur time.Duration) (serveLevel, error) {
	clients := make([]*client.Client, n)
	for i := range clients {
		c, err := client.Dial(addr, client.WithUser(benchOps[i%len(benchOps)].user))
		if err != nil {
			return serveLevel{}, fmt.Errorf("dial %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	var wg sync.WaitGroup
	lats := make([][]time.Duration, n)
	var errs int64
	var errMu sync.Mutex
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			// Every worker cycles through the full query mix, so levels
			// with different connection counts measure the same workload.
			for j := 0; time.Now().Before(deadline); j++ {
				t0 := time.Now()
				_, err := c.Exec(context.Background(), benchOps[j%len(benchOps)].query)
				if err != nil {
					errMu.Lock()
					errs++
					errMu.Unlock()
					continue
				}
				lats[i] = append(lats[i], time.Since(t0))
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx].Microseconds())
	}
	return serveLevel{
		Conns:      n,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Ops:        int64(len(all)),
		Errors:     errs,
		QPS:        float64(len(all)) / elapsed.Seconds(),
		P50Micros:  pct(0.50),
		P95Micros:  pct(0.95),
		P99Micros:  pct(0.99),
	}, nil
}

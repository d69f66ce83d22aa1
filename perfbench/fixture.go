package main

import (
	"fmt"
	"math/rand"
	"strings"

	"authdb/internal/workload"
)

// sizes fixes the fixture and workload scale. The defaults are the
// scaled bench fixture the old `authdb bench*` harnesses used; the smoke
// tests shrink every field.
type sizes struct {
	Employees   int `json:"employees"`
	Projects    int `json:"projects"`
	Assignments int `json:"assignments"`
	Titles      int `json:"titles"`
	// ExtraViews is the number of narrow views defined per relation on
	// top of the paper's four; Brown and Klein are granted all of them.
	ExtraViews int `json:"extra_views_per_relation"`
	// Principals is adhoc_read's principal count. Principal i holds two
	// of the paper's four views (i mod 4 and i+1 mod 4) and, from each
	// relation's extra views, ExtraGrants chosen by the seed.
	Principals  int `json:"adhoc_principals"`
	ExtraGrants int `json:"adhoc_extra_grants_per_relation"`
	// ConstsPerTemplate is the least number of seeded constants per
	// adhoc template (raised to the next number coprime with principals
	// × templates); the key space is principals × templates × constants.
	ConstsPerTemplate int `json:"adhoc_consts_per_template"`
	// WarmKeys is how many of the hottest adhoc keys set-up reads once.
	WarmKeys int `json:"adhoc_warm_keys"`
	// WriteRate is write_mix's open-loop write rate per second;
	// CheckpointEvery the number of writes between DB.Checkpoint calls.
	WriteRate       float64 `json:"write_rate_per_s"`
	CheckpointEvery int     `json:"checkpoint_every_writes"`
	// ProbeWrites is how many closed-loop writes to the PROBE relation,
	// which no query reads, the read workloads make in ProbeBursts
	// bursts between equal parts of their read window: every workload
	// reports write latency without the reads meeting WAL work.
	ProbeWrites int `json:"probe_writes"`
	ProbeBursts int `json:"probe_bursts"`
	// SetupRepeats is how many times set-up runs; setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// Reopens is how many copies of the final directory are reopened;
	// reopen_s is the median.
	Reopens int `json:"reopens"`
	// CheckSample is the share of adhoc reads whose answers are checked.
	CheckSample float64 `json:"adhoc_check_sample"`
	// MaxChecks bounds the adhoc answers checked per run.
	MaxChecks int `json:"adhoc_max_checks"`
}

func defaultSizes() sizes {
	return sizes{
		Employees: 300, Projects: 600, Assignments: 1200, Titles: 30, ExtraViews: 8,
		Principals: 16, ExtraGrants: 3, ConstsPerTemplate: 48, WarmKeys: 128,
		WriteRate: 25, CheckpointEvery: 40, ProbeWrites: 3000, ProbeBursts: 5,
		SetupRepeats: 5, Reopens: 5, CheckSample: 1.0 / 32, MaxChecks: 120,
	}
}

// op is one read: a principal and a retrieve statement.
type op struct {
	User  string
	Query string
}

func (o op) key() string { return o.User + "\x00" + o.Query }

// exampleOps are the paper's three worked examples (§5): Brown's large
// projects (Ex1), Klein's engineers on very large projects (Ex2, a
// 3-way join), and Brown's same-title self-join (Ex3).
var exampleOps = []op{
	{"Brown", oneLine(workload.Example1Query)},
	{"Klein", oneLine(workload.Example2Query)},
	{"Brown", oneLine(workload.Example3Query)},
}

func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

// fixtureScript is the paper's database scaled with synthetic rows and
// the grant-heavy view set: per relation, ExtraViews narrow views, all
// permitted to Brown and Klein (27 views for Brown). With principals,
// each adhoc principal is also granted a seeded subset of the views.
func fixtureScript(sz sizes, principals []string, seed int64) string {
	var b strings.Builder
	b.WriteString(workload.PaperScript)
	b.WriteString("relation PROBE (K, V) key (K);\n")
	for i := 0; i < sz.Employees; i++ {
		fmt.Fprintf(&b, "insert into EMPLOYEE values (e%d, t%d, %d);\n",
			i, i%sz.Titles, 20000+(i*37)%30000)
	}
	for i := 0; i < sz.Projects; i++ {
		sponsor := "Acme"
		if i%3 != 0 {
			sponsor = fmt.Sprintf("s%d", i%7)
		}
		fmt.Fprintf(&b, "insert into PROJECT values (p%d, %s, %d);\n", i, sponsor, (i*7919)%500000)
	}
	for i := 0; i < sz.Assignments; i++ {
		fmt.Fprintf(&b, "insert into ASSIGNMENT values (e%d, p%d);\n",
			(i*13)%sz.Employees, (i*31)%sz.Projects)
	}
	for k := 0; k < sz.ExtraViews; k++ {
		fmt.Fprintf(&b, "view BV%d (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.SALARY >= %d;\n",
			k, 49000+k*80)
		fmt.Fprintf(&b, "view PV%d (PROJECT.NUMBER, PROJECT.BUDGET) where PROJECT.BUDGET >= %d;\n",
			k, 490000+k*800)
		fmt.Fprintf(&b, "view AV%d (ASSIGNMENT.E_NAME, ASSIGNMENT.P_NO, PROJECT.NUMBER) "+
			"where ASSIGNMENT.P_NO = PROJECT.NUMBER and PROJECT.BUDGET >= %d;\n", k, 480000+k*1000)
		for _, u := range []string{"Brown", "Klein"} {
			fmt.Fprintf(&b, "permit BV%d to %s;\npermit PV%d to %s;\npermit AV%d to %s;\n", k, u, k, u, k, u)
		}
	}
	paper := []string{"SAE", "ELP", "EST", "PSA"}
	rng := rand.New(rand.NewSource(seed))
	for i, u := range principals {
		fmt.Fprintf(&b, "permit %s to %s;\npermit %s to %s;\n", paper[i%4], u, paper[(i+1)%4], u)
		for _, group := range []string{"BV", "PV", "AV"} {
			for _, k := range rng.Perm(sz.ExtraViews)[:min(sz.ExtraGrants, sz.ExtraViews)] {
				fmt.Fprintf(&b, "permit %s%d to %s;\n", group, k, u)
			}
		}
	}
	return b.String()
}

// adhocTemplates are adhoc_read's query shapes: the three examples with
// seeded constants, and two single-relation range queries. Ranges have
// a fixed width, so answers stay small (tens to a few hundred rows)
// whatever the constant: on this workload authorization, not
// presentation, should dominate.
var adhocTemplates = []struct {
	name  string
	query func(rng *rand.Rand, sz sizes) string
}{
	{"ex1", func(rng *rand.Rand, sz sizes) string {
		lo := rng.Intn(400000)
		return fmt.Sprintf("retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "+
			"where PROJECT.BUDGET >= %d and PROJECT.BUDGET < %d", lo, lo+100000)
	}},
	{"ex2", func(rng *rand.Rand, sz sizes) string {
		return fmt.Sprintf("retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) where EMPLOYEE.TITLE = t%d "+
			"and EMPLOYEE.NAME = ASSIGNMENT.E_NAME and ASSIGNMENT.P_NO = PROJECT.NUMBER "+
			"and PROJECT.BUDGET > %d", rng.Intn(sz.Titles), 100000+rng.Intn(300000))
	}},
	{"ex3", func(rng *rand.Rand, sz sizes) string {
		lo := 20000 + rng.Intn(27000)
		return fmt.Sprintf("retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, EMPLOYEE:2.SALARY) "+
			"where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE and EMPLOYEE:1.SALARY >= %d "+
			"and EMPLOYEE:1.SALARY < %d", lo, lo+3000)
	}},
	{"emp_range", func(rng *rand.Rand, sz sizes) string {
		lo := 20000 + rng.Intn(28000)
		return fmt.Sprintf("retrieve (EMPLOYEE.NAME, EMPLOYEE.TITLE, EMPLOYEE.SALARY) "+
			"where EMPLOYEE.SALARY >= %d and EMPLOYEE.SALARY < %d", lo, lo+2000)
	}},
	{"proj_range", func(rng *rand.Rand, sz sizes) string {
		lo := rng.Intn(460000)
		return fmt.Sprintf("retrieve (PROJECT.NUMBER, PROJECT.BUDGET) "+
			"where PROJECT.BUDGET >= %d and PROJECT.BUDGET < %d", lo, lo+40000)
	}},
}

// adhocPrincipals names adhoc_read's principals.
func adhocPrincipals(sz sizes) []string {
	out := make([]string, sz.Principals)
	for i := range out {
		out[i] = fmt.Sprintf("u%02d", i)
	}
	return out
}

// keySpace maps Zipf ranks to adhoc keys: rank r names principal
// r mod P, template (r / P) mod T and constant r mod C. With C coprime
// to P·T the map is a bijection (Chinese remainder theorem), and the
// hottest ranks spread over every principal, every template and many
// constants whatever the seed: seeds share the same mix and differ in
// constants and grants only.
type keySpace struct {
	principals []string
	queries    [][]string // [template][constant]
}

func newKeySpace(sz sizes, seed int64) *keySpace {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ks := &keySpace{principals: adhocPrincipals(sz)}
	pt := len(ks.principals) * len(adhocTemplates)
	n := sz.ConstsPerTemplate
	for gcd(n, pt) != 1 {
		n++
	}
	for _, t := range adhocTemplates {
		qs := make([]string, n)
		for i := range qs {
			qs[i] = t.query(rng, sz)
		}
		ks.queries = append(ks.queries, qs)
	}
	return ks
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (ks *keySpace) size() int {
	return len(ks.principals) * len(ks.queries) * len(ks.queries[0])
}

func (ks *keySpace) at(rank int) op {
	np, nc := len(ks.principals), len(ks.queries[0])
	return op{User: ks.principals[rank%np], Query: ks.queries[(rank/np)%len(ks.queries)][rank%nc]}
}

// zipfS and zipfV shape adhoc_read's rank distribution
// (P(rank k) ∝ (zipfV + k)^-zipfS).
const (
	zipfS = 1.1
	zipfV = 4
)

// writeGen produces write_mix's statements (and the read workloads'
// probe) in a cycle of forty: PROJECT appends, ASSIGNMENT appends onto
// the newest project, EMPLOYEE insert+delete pairs so EMPLOYEE's size
// stays steady (four per cycle), and one permit/revoke toggle of ELP
// for Brown.
type writeGen struct {
	rng      *rand.Rand
	sz       sizes
	n        int
	project  int  // last appended project
	employee int  // last inserted employee
	assigned int  // ASSIGNMENT appends so far
	granted  bool // whether Brown currently holds ELP
}

func newWriteGen(sz sizes, seed int64) *writeGen {
	return &writeGen{rng: rand.New(rand.NewSource(seed ^ 0x3a7e)), sz: sz, project: -1}
}

func (g *writeGen) next() string {
	i := g.n
	g.n++
	switch {
	case i%40 == 39:
		g.granted = !g.granted
		if g.granted {
			return "permit ELP to Brown"
		}
		return "revoke ELP from Brown"
	case i%10 == 2:
		g.employee++
		return fmt.Sprintf("insert into EMPLOYEE values (we%d, t%d, %d)",
			g.employee, g.rng.Intn(g.sz.Titles), 20000+g.rng.Intn(30000))
	case i%10 == 7:
		return fmt.Sprintf("delete from EMPLOYEE where NAME = we%d", g.employee)
	case i%2 == 1:
		// Consecutive appends onto one project name distinct employees,
		// so no (E_NAME, P_NO) key repeats.
		g.assigned++
		return fmt.Sprintf("insert into ASSIGNMENT values (e%d, wp%d)", g.assigned%g.sz.Employees, g.project)
	default:
		g.project++
		sponsor := "Acme"
		if k := g.rng.Intn(7); k > 0 {
			sponsor = fmt.Sprintf("s%d", k)
		}
		return fmt.Sprintf("insert into PROJECT values (wp%d, %s, %d)", g.project, sponsor, g.rng.Intn(500000))
	}
}

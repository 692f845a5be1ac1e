// Package advisor implements ClouDiA's end-to-end tuning methodology
// (Sect. 2.2, Fig. 3): allocate instances (over-allocating by a configurable
// ratio), measure pairwise latencies, search for a deployment plan
// minimizing the tenant's objective, and terminate the extra instances. The
// tenant provides only a communication graph and an objective; everything
// else — measurement scheme, latency metric, search technique — has paper
// defaults and can be overridden.
package advisor

import (
	"fmt"
	"math"

	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/solver/anneal"
	"cloudia/internal/solver/cp"
	"cloudia/internal/solver/greedy"
	"cloudia/internal/solver/mip"
	"cloudia/internal/solver/random"
)

// Metric selects how per-link latency samples are summarized into the
// communication cost (Sect. 3.2).
type Metric string

// The latency metrics the paper evaluates (Fig. 10, Fig. 11), plus p95.
// Percentile metrics select the multi-objective mode described on
// ObjectiveSpec.
const (
	MetricMean        Metric = "mean"
	MetricMeanPlusStd Metric = "mean+sd"
	MetricP95         Metric = "p95"
	MetricP99         Metric = "p99"
)

// Config drives one advising run.
type Config struct {
	// Graph is the application's communication graph; required.
	Graph *core.Graph
	// ObjectiveSpec says what to optimize — objective, metric, measurement
	// scheme, tie-break policy — and is validated once here for every
	// entry point (see its doc).
	ObjectiveSpec
	// OverAllocation is the fraction of extra instances to allocate beyond
	// the node count (the paper's default experiments use 0.1).
	OverAllocation float64
	// MeasureDurationMS is the virtual measurement budget; zero scales the
	// paper's rule of 5 minutes per 100 instances down to simulator scale:
	// 20 ms of staged measurement per instance.
	MeasureDurationMS float64
	// SolverName picks the search technique: cp, mip, g1, g2, r1, r2, r2l,
	// sa, or portfolio (every technique plus multi-seed SA restarts racing
	// concurrently, one goroutine each). Empty selects cp for longest link
	// and mip for longest path, the paper's choices (Sect. 6.3).
	SolverName string
	// ClusterK rounds costs into k clusters for cp/mip; zero selects the
	// paper's k=20 for CP and no clustering for MIP (Sect. 6.3).
	ClusterK int
	// SolverBudget bounds the search; zero selects 2M search nodes.
	SolverBudget solver.Budget
	// Seed drives all randomness.
	Seed int64
}

// Report is the outcome of an advising run.
type Report struct {
	// AllInstances is the full (over-)allocation in provider order.
	AllInstances []cloud.Instance
	// Deployment maps node -> index into AllInstances.
	Deployment core.Deployment
	// Assignments maps node -> the instance it should run on.
	Assignments []cloud.Instance
	// TerminatedIDs are the over-allocated instances ClouDiA shut down.
	TerminatedIDs []string
	// DefaultCost and TunedCost are deployment costs under the measured
	// cost matrix for the provider-order default deployment and the tuned
	// one.
	DefaultCost float64
	TunedCost   float64
	// Measurement carries the raw measurement result.
	Measurement *measure.Result
	// Search carries the solver result (trace, optimality, budget use).
	Search *solver.Result
	// SolverName records which technique ran.
	SolverName string
}

// Improvement reports the predicted relative cost reduction of the tuned
// deployment versus the default, in [0, 1].
func (r *Report) Improvement() float64 {
	if r.DefaultCost == 0 {
		return 0
	}
	return (r.DefaultCost - r.TunedCost) / r.DefaultCost
}

// validate checks every tenant-facing configuration field that does not
// require allocated instances to judge, so both Advise and StreamingAdvise
// reject a bad metric, scheme, or objective before a single instance is
// allocated or measured. The solver name is checked by ResolveSolver, which
// allocate runs before allocating.
func (cfg *Config) validate() error {
	if cfg.Graph == nil {
		return fmt.Errorf("advisor: nil communication graph")
	}
	if n := cfg.Graph.NumNodes(); n < 2 {
		return fmt.Errorf("advisor: need >= 2 application nodes, got %d", n)
	}
	if cfg.OverAllocation < 0 {
		return fmt.Errorf("advisor: negative over-allocation %g", cfg.OverAllocation)
	}
	return cfg.ObjectiveSpec.Validate()
}

// validate extends Config.validate with the one streaming-only
// restriction: mean+sd has no incremental per-epoch form (the epoch fold
// maintains means and quantile sketches, not standard deviations).
func (cfg *StreamingConfig) validate() error {
	if err := cfg.Config.validate(); err != nil {
		return err
	}
	if cfg.Metric == MetricMeanPlusStd {
		return fmt.Errorf("advisor: streaming advising does not support the %q metric (epochs carry mean and percentile matrices)", MetricMeanPlusStd)
	}
	return nil
}

// OverAllocate returns the instance count for n application nodes at the
// given over-allocation ratio: n plus ceil(n*ratio) extra instances,
// computed robustly against float rounding. The naive
// ceil(n*(1+ratio)) over-allocates one whole extra instance whenever the
// product lands one ulp above an integer — n=10 at the paper's default 0.1
// gives 10*1.1 = 11.000000000000002, so ceil returned 12 where 11 extra-ish
// instances were intended.
func OverAllocate(n int, ratio float64) int {
	const eps = 1e-9
	extra := int(math.Ceil(float64(n)*ratio - eps))
	if extra < 0 {
		extra = 0
	}
	return n + extra
}

// solvers builds each search technique by name; clusterK applies to cp,
// mip, and the portfolio.
var solvers = map[string]func(clusterK int, seed int64) solver.Solver{
	"cp":        func(k int, seed int64) solver.Solver { return cp.New(k, seed) },
	"mip":       func(k int, seed int64) solver.Solver { return mip.New(k, seed) },
	"g1":        func(int, int64) solver.Solver { return greedy.New(greedy.G1) },
	"g2":        func(int, int64) solver.Solver { return greedy.New(greedy.G2) },
	"r1":        func(_ int, seed int64) solver.Solver { return random.NewR1(1000, seed) },
	"r2":        func(_ int, seed int64) solver.Solver { return random.NewR2(seed) },
	"r2l":       func(_ int, seed int64) solver.Solver { return random.NewLocal(seed) },
	"sa":        func(_ int, seed int64) solver.Solver { return anneal.New(seed) },
	"portfolio": func(k int, seed int64) solver.Solver { return NewPortfolio(k, seed) },
}

// NewSolver builds a solver by name. clusterK applies to cp, mip, and the
// portfolio.
func NewSolver(name string, clusterK int, seed int64) (solver.Solver, error) {
	build, ok := solvers[name]
	if !ok {
		return nil, fmt.Errorf("advisor: unknown solver %q", name)
	}
	return build(clusterK, seed), nil
}

// SolverSpec is a resolved search configuration: which technique runs, at
// which cluster count, under which budget.
type SolverSpec struct {
	Name     string
	ClusterK int
	Budget   solver.Budget
}

// ResolveSolver validates a solver name and applies the search defaults.
// It is the one place they live: Advise, StreamingAdvise, SolveStream,
// RunRedeploy, and the serving layer (admission and cache warm-up) all
// resolve through it. An empty name selects cp for longest link and mip for
// longest path when batch is set (the paper's choices, Sect. 6.3), and the
// racing portfolio for warm-started rounds otherwise. A zero clusterK
// selects the paper's k=20 (Fig. 6) for cp and for the portfolio's CP
// member. An unlimited budget selects 2M search nodes.
func ResolveSolver(name string, clusterK int, budget solver.Budget, obj solver.Objective, batch bool) (SolverSpec, error) {
	switch {
	case name != "":
	case !batch:
		name = "portfolio"
	case obj == solver.LongestPath:
		name = "mip"
	default:
		name = "cp"
	}
	if _, ok := solvers[name]; !ok {
		return SolverSpec{}, fmt.Errorf("advisor: unknown solver %q", name)
	}
	if clusterK == 0 && (name == "cp" || name == "portfolio") {
		clusterK = 20
	}
	if budget.Unlimited() {
		budget = solver.Budget{Nodes: 2_000_000}
	}
	return SolverSpec{Name: name, ClusterK: clusterK, Budget: budget}, nil
}

// NewPortfolio builds the default parallel solver portfolio: the systematic
// solvers, both greedies, the local searches, and three differently-seeded
// simulated-annealing restarts, all racing on their own goroutine under one
// shared deployment-time budget. Members that do not apply to the problem's
// objective (CP on longest-path) drop out by erroring; the portfolio keeps
// the best of the rest. The R2L member and CP's parallel embedding search
// are each capped at two workers so a single member does not oversubscribe
// the CPU the other members share.
func NewPortfolio(clusterK int, seed int64) *solver.Portfolio {
	return solver.NewPortfolio(
		&cp.Solver{ClusterK: clusterK, Seed: seed, Workers: 2},
		mip.New(clusterK, seed),
		greedy.New(greedy.G1),
		greedy.New(greedy.G2),
		&random.Local{Seed: seed, Workers: 2},
		anneal.New(seed),
		anneal.New(seed+0x51ed),
		anneal.New(seed+2*0x51ed),
	)
}

// Advise runs the full ClouDiA pipeline against the provider: allocate,
// measure, search, terminate extras. The search is SolveStream over a
// single final epoch holding the measured metric matrix, so batch and
// streaming advising share one search loop. If any step after allocation
// fails, every allocated instance is terminated before returning — a
// failed tuning run must not leave the tenant paying for idle instances.
func Advise(prov *cloud.Provider, cfg Config) (rep *Report, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a, err := allocate(prov, &cfg, true)
	if err != nil {
		return nil, err
	}
	defer a.release(&err)
	meas, out, err := a.solveOnce(0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return a.report(out, meas, out.Solver, out.Search)
}

// allocation is one pipeline run's instances, with the measurement and
// search defaults resolved. Advise, StreamingAdvise, and RunRedeploy share
// it for Fig. 3's "Allocate Instances" and "Terminate Extra Instances"
// steps.
type allocation struct {
	prov      *cloud.Provider
	graph     *core.Graph
	spec      ObjectiveSpec
	search    SolverSpec
	instances []cloud.Instance
	// durationMS is the virtual budget of each measurement.
	durationMS float64
}

// allocate resolves cfg's search defaults (batch as in ResolveSolver) and
// measurement defaults, then allocates the over-allocated instances. A zero
// MeasureDurationMS scales the paper's rule of 5 minutes per 100 instances
// down to simulator scale: 20 ms of staged measurement per instance. cfg
// must already be validated.
func allocate(prov *cloud.Provider, cfg *Config, batch bool) (*allocation, error) {
	search, err := ResolveSolver(cfg.SolverName, cfg.ClusterK, cfg.SolverBudget, cfg.Objective, batch)
	if err != nil {
		return nil, err
	}
	total := OverAllocate(cfg.Graph.NumNodes(), cfg.OverAllocation)
	instances, err := prov.RunInstances(total)
	if err != nil {
		return nil, err
	}
	dur := cfg.MeasureDurationMS
	if dur == 0 {
		dur = 20 * float64(total)
	}
	return &allocation{prov: prov, graph: cfg.Graph, spec: cfg.WithDefaults(), search: search,
		instances: instances, durationMS: dur}, nil
}

// release terminates every allocated instance when *err reports a failed
// run, keeping the original error and noting any cleanup failure beside
// it. Callers defer it on their named error result.
func (a *allocation) release(err *error) {
	if *err == nil {
		return
	}
	ids := make([]string, len(a.instances))
	for i, inst := range a.instances {
		ids[i] = inst.ID
	}
	if terr := a.prov.TerminateInstances(ids); terr != nil {
		*err = fmt.Errorf("%w (cleanup also failed: %v)", *err, terr)
	}
}

// solveOnce measures the allocation once, starting at the given hour
// (Fig. 3, "Get Measurements"), and searches the metric matrix as
// SolveStream's single final epoch with the resolved solver and budget
// (Fig. 3, "Search Deployment").
func (a *allocation) solveOnce(hours float64, seed int64) (*measure.Result, *StreamOutcome, error) {
	meas, err := measure.Run(a.prov.Datacenter(), a.instances, measure.Options{
		Scheme:     a.spec.Scheme,
		DurationMS: a.durationMS,
		Seed:       seed,
		StartHours: hours,
	})
	if err != nil {
		return nil, nil, err
	}
	out, err := SolveStream(a.spec.batchEpoch(meas), StreamSolveConfig{
		Graph:         a.graph,
		ObjectiveSpec: a.spec,
		SolverName:    a.search.Name,
		ClusterK:      a.search.ClusterK,
		RoundBudget:   a.search.Budget,
		Seed:          seed,
	})
	return meas, out, err
}

// report terminates the instances the outcome's deployment leaves unused
// (Fig. 3, "Terminate Extra Instances") and assembles the run's Report.
func (a *allocation) report(out *StreamOutcome, meas *measure.Result, name string, search *solver.Result) (*Report, error) {
	used := make([]bool, len(a.instances))
	for _, inst := range out.Deployment {
		used[inst] = true
	}
	var terminated []string
	for i, inst := range a.instances {
		if !used[i] {
			terminated = append(terminated, inst.ID)
		}
	}
	if err := a.prov.TerminateInstances(terminated); err != nil {
		return nil, err
	}
	n := a.graph.NumNodes()
	assignments := make([]cloud.Instance, n)
	for node, inst := range out.Deployment {
		assignments[node] = a.instances[inst]
	}
	return &Report{
		AllInstances:  a.instances,
		Deployment:    out.Deployment,
		Assignments:   assignments,
		TerminatedIDs: terminated,
		DefaultCost:   out.Problem.Cost(core.Identity(n)),
		TunedCost:     out.Cost,
		Measurement:   meas,
		Search:        search,
		SolverName:    name,
	}, nil
}

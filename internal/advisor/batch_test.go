package advisor

import (
	"fmt"
	"reflect"
	"testing"

	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
)

// referenceAdvise is the batch search as a direct composition, kept as the
// reference Advise must reproduce bit for bit: allocate, measure.Run, the
// metric matrix (with the mean as tie-break for percentiles),
// NewProblemTie, and one Solve of the resolved solver — the paper's
// defaults written out literally (an empty name selects cp for longest
// link and mip for longest path; k=0 selects 20 for cp and portfolio; an
// unlimited budget selects 2M nodes).
func referenceAdvise(t *testing.T, seed int64, cfg Config) *Report {
	t.Helper()
	prov := provider(t, seed)
	n := cfg.Graph.NumNodes()
	total := OverAllocate(n, cfg.OverAllocation)
	instances, err := prov.RunInstances(total)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := measure.Run(prov.Datacenter(), instances, measure.Options{
		Scheme: measure.Staged, DurationMS: 20 * float64(total), Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var costs, tie *core.CostMatrix
	switch cfg.Metric {
	case MetricMean:
		costs = meas.MeanMatrix()
	case MetricMeanPlusStd:
		costs = meas.MeanPlusStdMatrix()
	case MetricP99:
		costs, tie = meas.P99Matrix(), meas.MeanMatrix()
	default:
		t.Fatalf("reference: metric %q", cfg.Metric)
	}
	prob, err := solver.NewProblemTie(cfg.Graph, costs, tie, cfg.Objective)
	if err != nil {
		t.Fatal(err)
	}
	name, k := cfg.SolverName, cfg.ClusterK
	if name == "" {
		name = "cp"
		if cfg.Objective == solver.LongestPath {
			name = "mip"
		}
	}
	if k == 0 && (name == "cp" || name == "portfolio") {
		k = 20
	}
	budget := cfg.SolverBudget
	if budget.Unlimited() {
		budget = solver.Budget{Nodes: 2_000_000}
	}
	sol, err := NewSolver(name, k, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sol.Solve(prob, budget)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, total)
	for _, inst := range res.Deployment {
		used[inst] = true
	}
	var terminated []string
	for i, inst := range instances {
		if !used[i] {
			terminated = append(terminated, inst.ID)
		}
	}
	return &Report{
		Deployment:    res.Deployment,
		TerminatedIDs: terminated,
		DefaultCost:   prob.Cost(core.Identity(n)),
		TunedCost:     res.Cost,
		SolverName:    sol.Name(),
	}
}

// TestAdviseMatchesReferenceComposition pins batch Advise to the direct
// measure -> matrix -> problem -> solve composition across solvers,
// objectives and metrics: deployment, both costs, the terminated set and
// the reported solver name must be bit-equal.
func TestAdviseMatchesReferenceComposition(t *testing.T) {
	mesh := meshGraph(t, 3, 3)
	tree, err := core.TwoLevelAggregation(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	objectives := []struct {
		obj     solver.Objective
		graph   *core.Graph
		solvers []string
	}{
		{solver.LongestLink, mesh, []string{"cp", "mip", "g1", "sa", "portfolio"}},
		// CP does not support longest path.
		{solver.LongestPath, tree, []string{"mip", "g1", "sa", "portfolio"}},
	}
	seed := int64(400)
	for _, o := range objectives {
		for _, name := range o.solvers {
			for _, metric := range []Metric{MetricMean, MetricMeanPlusStd, MetricP99} {
				seed++
				cfg := Config{
					Graph:          o.graph,
					ObjectiveSpec:  ObjectiveSpec{Objective: o.obj, Metric: metric},
					OverAllocation: 0.3,
					SolverName:     name,
					SolverBudget:   solver.Budget{Nodes: 20_000},
					Seed:           seed,
				}
				t.Run(fmt.Sprintf("%s/%s/%s", o.obj, name, metric), func(t *testing.T) {
					want := referenceAdvise(t, seed, cfg)
					got, err := Advise(provider(t, seed), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Deployment, want.Deployment) {
						t.Fatalf("deployment %v, want %v", got.Deployment, want.Deployment)
					}
					if got.TunedCost != want.TunedCost || got.DefaultCost != want.DefaultCost {
						t.Fatalf("costs tuned %v default %v, want %v %v",
							got.TunedCost, got.DefaultCost, want.TunedCost, want.DefaultCost)
					}
					if !reflect.DeepEqual(got.TerminatedIDs, want.TerminatedIDs) {
						t.Fatalf("terminated %v, want %v", got.TerminatedIDs, want.TerminatedIDs)
					}
					if got.SolverName != want.SolverName {
						t.Fatalf("solver name %q, want %q", got.SolverName, want.SolverName)
					}
				})
			}
		}
	}
}

// Unclustered CP on a tiny mesh proves optimality within the default
// budget, and Advise must still surface that proof: the CLI prints it.
func TestAdviseExactCPReportsOptimal(t *testing.T) {
	rep, err := Advise(provider(t, 43), Config{
		Graph:          meshGraph(t, 2, 3),
		ObjectiveSpec:  ObjectiveSpec{Objective: solver.LongestLink},
		OverAllocation: 0.1,
		SolverName:     "cp",
		ClusterK:       -1,
		Seed:           47,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Search.Optimal {
		t.Fatal("exact CP on a 2x3 mesh did not report a proven optimum")
	}
	if rep.SolverName != "CP" {
		t.Fatalf("solver name %q, want CP", rep.SolverName)
	}
}

package advisor

import (
	"reflect"
	"testing"

	"cloudia/internal/cloud"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

// shiftingProvider builds a provider over a non-stationary EC2-like network
// whose regime changes every regimeHours.
func shiftingProvider(t *testing.T, regimeHours float64, seed int64) *cloud.Provider {
	t.Helper()
	prof := topology.EC2Profile()
	prof.RegimeHours = regimeHours
	dc, err := topology.New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cloud.NewProvider(dc, 0.6, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRedeployValidation(t *testing.T) {
	p := shiftingProvider(t, 8, 1)
	g := meshGraph(t, 3, 3)
	if _, err := RunRedeploy(p, RedeployConfig{Graph: nil, PeriodHours: 1, Periods: 1}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := RunRedeploy(p, RedeployConfig{Graph: g, Objective: solver.LongestLink, Periods: 1}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := RunRedeploy(p, RedeployConfig{
		Graph: g, Objective: solver.LongestLink, PeriodHours: 1, Periods: 1,
		MigrationCostPerNode: -1,
	}); err == nil {
		t.Fatal("negative migration cost accepted")
	}
}

func TestRedeployAdaptsToRegimeChanges(t *testing.T) {
	p := shiftingProvider(t, 8, 3)
	g := meshGraph(t, 4, 4)
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:          g,
		Objective:      solver.LongestLink,
		OverAllocation: 0.25,
		PeriodHours:    8, // aligned with regime changes: each period sees a new network
		Periods:        4,
		MinImprovement: 0.05,
		Seed:           5,
		SolverBudget:   solver.Budget{Nodes: 400_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Periods) != 4 {
		t.Fatalf("recorded %d periods, want 4", len(rep.Periods))
	}
	if rep.Redeployments == 0 {
		t.Fatal("never re-deployed despite regime changes every period")
	}
	// The adaptive plan must beat the frozen initial plan on average.
	if rep.MeanAdaptiveCost() >= rep.MeanStaticCost() {
		t.Fatalf("adaptive %.4f >= static %.4f", rep.MeanAdaptiveCost(), rep.MeanStaticCost())
	}
	if err := rep.Final.Validate(len(rep.Instances)); err != nil {
		t.Fatalf("final deployment invalid: %v", err)
	}
}

func TestRedeployStableNetworkStaysPut(t *testing.T) {
	// On a stationary network (RegimeHours = 0) the initial plan stays
	// near-optimal, so with a meaningful hysteresis threshold there should
	// be no re-deployments.
	p := shiftingProvider(t, 0, 7)
	g := meshGraph(t, 4, 4)
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:          g,
		Objective:      solver.LongestLink,
		OverAllocation: 0.25,
		PeriodHours:    8,
		Periods:        3,
		MinImprovement: 0.10,
		Seed:           9,
		SolverBudget:   solver.Budget{Nodes: 400_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redeployments != 0 {
		t.Fatalf("re-deployed %d times on a stable network", rep.Redeployments)
	}
}

func TestRedeployMigrationCostSuppressesChurn(t *testing.T) {
	// With a prohibitive migration cost, the adaptive plan must freeze even
	// under regime changes.
	p := shiftingProvider(t, 8, 11)
	g := meshGraph(t, 4, 4)
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:                g,
		Objective:            solver.LongestLink,
		OverAllocation:       0.25,
		PeriodHours:          8,
		Periods:              3,
		MinImprovement:       0.05,
		MigrationCostPerNode: 100, // ~1600 ms charge vs ~1 ms gains
		Seed:                 13,
		SolverBudget:         solver.Budget{Nodes: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Redeployments != 0 {
		t.Fatalf("re-deployed %d times despite prohibitive migration cost", rep.Redeployments)
	}
	// Static and adaptive must then coincide.
	for i, p := range rep.Periods {
		if p.AdaptiveCost != p.StaticCost {
			t.Fatalf("period %d: adaptive %.4f != static %.4f with frozen plan",
				i, p.AdaptiveCost, p.StaticCost)
		}
	}
}

func TestRedeployKeepsSpareInstances(t *testing.T) {
	p := shiftingProvider(t, 8, 15)
	g := meshGraph(t, 3, 3)
	before := p.LiveInstances()
	rep, err := RunRedeploy(p, RedeployConfig{
		Graph:          g,
		Objective:      solver.LongestLink,
		OverAllocation: 0.5,
		PeriodHours:    8,
		Periods:        2,
		Seed:           17,
		SolverBudget:   solver.Budget{Nodes: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive sessions retain the full allocation (no termination).
	if p.LiveInstances() != before+len(rep.Instances) {
		t.Fatalf("live instances %d, want %d", p.LiveInstances(), before+len(rep.Instances))
	}
}

// Re-deployment allocates through OverAllocate like the other pipelines:
// the naive ceil(n*(1+r)) gave 111 instances for 100 nodes at 0.1
// (100*1.1 = 110.00000000000001).
func TestRedeployOverAllocatesRobustly(t *testing.T) {
	rep, err := RunRedeploy(provider(t, 71), RedeployConfig{
		Graph:          meshGraph(t, 10, 10),
		Objective:      solver.LongestLink,
		OverAllocation: 0.1,
		PeriodHours:    8,
		Periods:        1,
		SolverName:     "g1",
		Seed:           73,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Instances); got != 110 {
		t.Fatalf("allocated %d instances for 100 nodes at 0.1, want 110", got)
	}
}

// Re-deployment resolves solver defaults like Advise: the portfolio's CP
// and MIP members cluster at the paper's k=20, so the initial plan is
// exactly the batch search's, and differs from the unclustered
// portfolio's on this instance.
func TestRedeployPortfolioUsesDefaultClusterK(t *testing.T) {
	const seed = 501
	cfg := Config{
		Graph:          meshGraph(t, 3, 3),
		ObjectiveSpec:  ObjectiveSpec{Objective: solver.LongestLink, Metric: MetricMean},
		OverAllocation: 0.3,
		SolverName:     "portfolio",
		SolverBudget:   solver.Budget{Nodes: 5_000},
		Seed:           seed,
	}
	want := referenceAdvise(t, seed, cfg)
	unclustered := cfg
	unclustered.ClusterK = -1
	if reflect.DeepEqual(referenceAdvise(t, seed, unclustered).Deployment, want.Deployment) {
		t.Fatal("instance does not tell k=20 from unclustered; pick another seed")
	}
	rep, err := RunRedeploy(provider(t, seed), RedeployConfig{
		Graph:          cfg.Graph,
		Objective:      cfg.Objective,
		OverAllocation: cfg.OverAllocation,
		PeriodHours:    8,
		Periods:        1,
		SolverName:     cfg.SolverName,
		SolverBudget:   cfg.SolverBudget,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Initial, want.Deployment) {
		t.Fatalf("initial plan %v, want the k=20 portfolio's %v", rep.Initial, want.Deployment)
	}
}

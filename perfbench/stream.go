package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/measure"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
)

// The stream-advise workload: one caller runs advisor.StreamingAdvise end
// to end — allocate, staged streaming measurement with quantile-sketch
// tails, warm-started portfolio rounds per epoch, terminate — with the p99
// metric, cycling through the three paper applications in equal thirds.

// streamInputs are the workload's seed-derived inputs: the datacenter and
// streamInputs (application, provider seed, advising seed) triples. Input
// i is application i%3, so the op mix runs in exact thirds.
type streamInputs struct {
	sz   size
	dc   *topology.Datacenter
	apps []*app
	// want holds each input's advice from the fixed sequence; every later
	// op on the same input must reproduce it bit for bit.
	want []*streamResult
}

// streamResult is one advising run's checked outcome.
type streamResult struct {
	dep          []int
	cost, defCst float64
	rounds       int
	samples      int64
	firstAdvice  time.Duration
}

func newStreamInputs(seed int64, sz size) (*streamInputs, error) {
	dc, err := topology.New(topology.EC2Profile(), seed)
	if err != nil {
		return nil, err
	}
	apps, err := paperApps(sz.sMeshRows, sz.sMeshCols, sz.sAggMids, sz.sAggLeaves, sz.sKVFront, sz.sKVStore)
	if err != nil {
		return nil, err
	}
	return &streamInputs{sz: sz, dc: dc, apps: apps, want: make([]*streamResult, sz.streamInputs)}, nil
}

// provider is a fresh simulated cloud for input i: an advising run
// allocates from it and terminates only the extra instances, so every op
// starts from its own.
func (in *streamInputs) provider(seed int64, i int) (*cloud.Provider, error) {
	return cloud.NewProvider(in.dc, occupancy, subSeed(seed, "stream-provider", i))
}

func (in *streamInputs) config(seed int64, i int) advisor.StreamingConfig {
	a := in.apps[i%len(in.apps)]
	return advisor.StreamingConfig{
		Config: advisor.Config{
			Graph:          a.graph,
			ObjectiveSpec:  advisor.ObjectiveSpec{Objective: a.objective, Metric: advisor.MetricP99},
			OverAllocation: overAllocation,
			Seed:           subSeed(seed, "stream-advise", i),
		},
		RoundBudget: solver.Budget{Nodes: in.sz.streamRoundNodes},
	}
}

// check verifies one report: an injective in-range deployment whose
// TunedCost and DefaultCost equal solver.Problem.Cost over the measured p99
// matrix, bit for bit, and — once the input's fixed result is known — the
// same advice as that result.
func (in *streamInputs) check(i int, rep *advisor.StreamingReport, tr *tracer, op int64) (*streamResult, error) {
	root, start := tr.id(), time.Now()
	defer func() { tr.add(root, 0, op, rootCheck, start, time.Now()) }()
	a := in.apps[i%len(in.apps)]
	n := a.graph.NumNodes()
	if err := checkDeployment(rep.Deployment, n, len(rep.AllInstances)); err != nil {
		return nil, err
	}
	var tail *core.CostMatrix
	var err error
	tr.time("sketch.tail", root, op, func() { tail, err = rep.Measurement.TailMatrix(tailPct) })
	if err != nil {
		return nil, err
	}
	prob, err := solver.NewProblem(a.graph, tail, a.objective)
	if err != nil {
		return nil, err
	}
	res := &streamResult{dep: rep.Deployment, cost: rep.TunedCost, defCst: rep.DefaultCost,
		rounds: len(rep.Rounds), samples: rep.Measurement.TotalSamples, firstAdvice: rep.FirstAdvice}
	if c := prob.Cost(rep.Deployment); math.Float64bits(c) != math.Float64bits(rep.TunedCost) {
		return nil, fmt.Errorf("input %d: TunedCost %v, deployment costs %v", i, rep.TunedCost, c)
	}
	if c := prob.Cost(core.Identity(n)); math.Float64bits(c) != math.Float64bits(rep.DefaultCost) {
		return nil, fmt.Errorf("input %d: DefaultCost %v, default deployment costs %v", i, rep.DefaultCost, c)
	}
	if w := in.want[i]; w != nil {
		if !slices.Equal(w.dep, res.dep) || w.cost != res.cost || w.rounds != res.rounds || w.samples != res.samples {
			return nil, fmt.Errorf("input %d: advice differs from the fixed run's (cost %v vs %v)", i, res.cost, w.cost)
		}
	}
	return res, nil
}

// composed runs StreamingAdvise's steps through the public calls it makes,
// with a span at each layer boundary: cloud.allocate, measure.stream (from
// Stream to the producer finishing, overlapping the rounds), one
// advisor.round per epoch solve, and cloud.terminate.
func (in *streamInputs) composed(seed int64, i int, prov *cloud.Provider, tr *tracer, op int64, root int64) (*advisor.StreamingReport, error) {
	cfg := in.config(seed, i)
	n := cfg.Graph.NumNodes()
	total := advisor.OverAllocate(n, cfg.OverAllocation)
	var insts []cloud.Instance
	var err error
	tr.time("cloud.allocate", root, op, func() { insts, err = prov.RunInstances(total) })
	if err != nil {
		return nil, err
	}
	dur := 20 * float64(total)
	mid, mstart := tr.id(), time.Now()
	st, err := measure.Stream(in.dc, insts, measure.Options{
		Scheme:          measure.Staged,
		DurationMS:      dur,
		Seed:            cfg.Seed,
		SnapshotEveryMS: dur / 8,
		TailAlpha:       measure.DefaultTailAlpha,
	})
	if err != nil {
		return nil, err
	}
	measured := make(chan time.Time, 1)
	go func() {
		st.Wait()
		measured <- time.Now()
	}()
	prev := time.Now()
	out, err := advisor.SolveStream(st.Epochs, advisor.StreamSolveConfig{
		Graph:         cfg.Graph,
		ObjectiveSpec: cfg.ObjectiveSpec,
		RoundBudget:   cfg.RoundBudget,
		Seed:          cfg.Seed,
		OnRound: func(advisor.Round) {
			now := time.Now()
			tr.add(tr.id(), root, op, "advisor.round", prev, now)
			prev = now
		},
	})
	meas := st.Wait()
	tr.add(mid, root, op, "measure.stream", mstart, <-measured)
	if err != nil {
		return nil, err
	}
	used := make([]bool, total)
	for _, inst := range out.Deployment {
		used[inst] = true
	}
	var extra []string
	for k, inst := range insts {
		if !used[k] {
			extra = append(extra, inst.ID)
		}
	}
	tr.time("cloud.terminate", root, op, func() { err = prov.TerminateInstances(extra) })
	if err != nil {
		return nil, err
	}
	return &advisor.StreamingReport{
		Report: advisor.Report{
			AllInstances: insts,
			Deployment:   out.Deployment,
			DefaultCost:  out.Problem.Cost(core.Identity(n)),
			TunedCost:    out.Cost,
			Measurement:  meas,
		},
		Rounds:      out.Rounds,
		FirstAdvice: out.FirstAdvice,
	}, nil
}

func runStreamWorkload(r *runner) error {
	sz, seed := r.o.size, r.o.seed
	tr := r.tracer()
	advise := func(in *streamInputs, i int) (*advisor.StreamingReport, time.Duration, error) {
		prov, err := in.provider(seed, i)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		rep, err := advisor.StreamingAdvise(prov, in.config(seed, i))
		return rep, time.Since(start), err
	}

	// Set-up: build the inputs and run two untimed ops per application.
	// Op times differ between inputs, and two inputs per application keep
	// setup_s from resting on a single allocation of each.
	var in *streamInputs
	var setups []float64
	for rep := 0; rep < sz.streamSetupReps; rep++ {
		start := time.Now()
		var err error
		if in, err = newStreamInputs(seed, sz); err != nil {
			return err
		}
		for i := 0; i < 2*len(in.apps) && i < sz.streamInputs; i++ {
			rep, _, err := advise(in, i)
			if err == nil {
				_, err = in.check(i, rep, nil, 0)
			}
			r.op(err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.note("setup_s samples %v", setups)

	// The fixed sequence: every input once, in order.
	var ratio float64
	var rounds int
	var samplesTotal int64
	reports := make([]*advisor.StreamingReport, sz.streamInputs)
	for i := 0; i < sz.streamInputs; i++ {
		rep, _, err := advise(in, i)
		var res *streamResult
		if err == nil {
			res, err = in.check(i, rep, nil, 0)
		}
		r.op(err)
		if err != nil {
			return fmt.Errorf("fixed stream input %d: %w", i, err)
		}
		in.want[i], reports[i] = res, rep
		ratio += res.cost / res.defCst
		rounds += res.rounds
		samplesTotal += res.samples
		r.addDigest(fmt.Sprintf("input%d", i), res.dep)
	}
	f := float64(sz.streamInputs)
	r.e2e["cost_ratio"] = ratio / f
	r.addDigest("cost_ratio", r.e2e["cost_ratio"])
	r.setCount("advisor.rounds_per_op", float64(rounds)/f)
	r.setCount("measure.samples_per_op", float64(samplesTotal)/f)
	for _, name := range []string{"serve.cache_hit_ratio", "serve.cache_misses_per_op", "solver.nodes_per_op",
		"wal.syncs_per_op", "wal.compactions_per_op", "wal.bytes_per_op"} {
		r.setCount(name, 0)
	}

	secs := time.Duration(r.o.seconds * float64(time.Second))
	if tr != nil {
		secs /= 2
	}
	var firstAdvice time.Duration
	var opID int64
	p := closedLoop(1, secs, func(_, k int) (time.Duration, bool) {
		i := k % sz.streamInputs
		opID++
		rep, lat, err := advise(in, i)
		if err == nil {
			var res *streamResult
			res, err = in.check(i, rep, nil, opID)
			if err == nil {
				firstAdvice += res.firstAdvice
			}
		}
		r.op(err)
		r.classLatency(in.apps[i%len(in.apps)].name, lat)
		return lat, err == nil
	})
	r.summarize(p)
	r.layers["advisor.first_advice_ms"] = float64(firstAdvice) / 1e6 / float64(p.ops)

	var traced phase
	if tr != nil {
		traced = closedLoop(1, secs, func(_, k int) (time.Duration, bool) {
			i := k % sz.streamInputs
			opID++
			prov, err := in.provider(seed, i)
			if err != nil {
				r.op(err)
				return 0, false
			}
			root, start := tr.id(), time.Now()
			rep, err := in.composed(seed, i, prov, tr, opID, root)
			end := time.Now()
			tr.add(root, 0, opID, rootOp, start, end)
			if err == nil {
				_, err = in.check(i, rep, tr, opID)
			}
			r.op(err)
			return end.Sub(start), err == nil
		})
	}

	// The fixed sequence's reports — allocations, measurement aggregates
	// and sketches, one per input — are the workload's long-lived state.
	r.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(reports)

	if tr != nil {
		return r.finishTrace(tr, traced)
	}
	return nil
}

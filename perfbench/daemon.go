package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudia/internal/advisor"
	"cloudia/internal/cluster"
	"cloudia/internal/core"
	"cloudia/internal/graphio"
	"cloudia/internal/measure"
	"cloudia/internal/serve"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
	"cloudia/internal/wal"
)

// The daemon workloads drive serve.Daemon through its HTTP front end on a
// loopback listener, in-process, with the daemon's defaults: 2 shards,
// GOMAXPROCS par workers, fsync on every WAL append, compaction every 32
// epochs. Each starts from a real restart over a WAL tree generated
// beforehand.

// Headers that route a request to the traced mirror of the front end.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// tenantState is the client's view of one tenant: its replica of the
// daemon's matrices and its last advice.
type tenantState struct {
	epoch  int // the daemon's epoch count for the tenant
	posted int // epochs posted from the payload pool

	mean, tail         *core.MutableCostMatrix
	meanSnap, tailSnap *core.CostMatrix
	meanFP, tailFP     core.Fingerprint
	changed, tailChgd  []int
	// unpublished marks rows applied since the snapshots were taken.
	unpublished bool

	prob        *solver.Problem // cost-check problem over the snapshots
	defaultCost float64

	lastDep    []int
	lastRatio  float64
	lastAdvice *wal.AdviceRecord
}

// tenant is one daemon tenant.
type tenant struct {
	name       string
	g          *group
	seed       int64
	nodes      int64 // advise node budget
	adviseBody []byte
	pool       []epochPayload
	shadow     *wal.Log

	base tenantState
	tenantState
}

// replica builds a mutable copy of m with no dirty rows.
func replica(m *core.CostMatrix) *core.MutableCostMatrix {
	mm := core.NewMutableCostMatrix(m.Size())
	for i := 0; i < m.Size(); i++ {
		for j, v := range m.Row(i) {
			mm.Set(i, j, v)
		}
	}
	mm.Snapshot()
	return mm
}

// reset returns the tenant to its state right after generation.
func (t *tenant) reset() {
	t.tenantState = t.base
	t.mean, t.tail = replica(t.base.meanSnap), replica(t.base.tailSnap)
}

// apply folds one epoch's rows into the replica and re-derives the mean
// fingerprint the daemon's ack must carry. Snapshots are left to publish,
// so a timed op that only checks the ack allocates nothing.
func (t *tenant) apply(rows, tailRows []wal.RowDelta) {
	for _, d := range rows {
		for j, v := range d.Values {
			t.mean.Set(d.Row, j, v)
		}
	}
	for _, d := range tailRows {
		for j, v := range d.Values {
			t.tail.Set(d.Row, j, v)
		}
	}
	t.meanFP = t.mean.Fingerprint()
	t.epoch++
	t.unpublished = true
	t.prob = nil
}

// publish snapshots the replica the way the daemon publishes an epoch,
// when rows were applied since the last snapshot.
func (t *tenant) publish() {
	if !t.unpublished {
		return
	}
	ep := measure.PublishEpoch(t.mean, 0, true, 0)
	tm := measure.PublishTail(t.tail, tailPct)
	t.meanSnap, t.meanFP, t.changed = ep.Matrix, ep.Fingerprint, ep.ChangedRows
	t.tailSnap, t.tailFP, t.tailChgd = tm.Matrix, tm.Fingerprint, tm.ChangedRows
	t.unpublished = false
}

// daemonRun is one daemon workload run.
type daemonRun struct {
	r      *runner
	kind   string
	metric string
	dc     *topology.Datacenter
	sz     size

	tenants []*tenant
	owned   [][]*tenant

	d      *serve.Daemon
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
	// tr records spans in a traced run; set before the first request.
	tr *tracer

	opIDs atomic.Int64
}

func (dr *daemonRun) hasEpoch() bool  { return dr.kind != "advise-steady" }
func (dr *daemonRun) hasAdvise() bool { return dr.kind != "epoch-ingest" }

func runDaemonWorkload(r *runner) error {
	dr := &daemonRun{r: r, kind: r.o.workload, metric: string(advisor.MetricMean), sz: r.o.size}
	if dr.kind == "epoch-refresh" {
		dr.metric = string(advisor.MetricP99)
	}
	if err := dr.buildInputs(); err != nil {
		return err
	}
	pristine := filepath.Join(r.o.dir, "pristine")
	if err := dr.generate(pristine); err != nil {
		return fmt.Errorf("generating the WAL tree: %w", err)
	}
	r.walMedium = fsMedium(pristine)

	clients := clientCount()
	dr.owned = make([][]*tenant, clients)
	for i, t := range dr.tenants {
		dr.owned[i%clients] = append(dr.owned[i%clients], t)
	}
	tr := r.tracer()
	dr.tr = tr

	// Set-up: restart over a fresh copy of the tree, then one untimed
	// warm-up op per tenant. Repeated; setup_s is the median.
	var setups []float64
	for rep := 0; rep < dr.sz.setupReps; rep++ {
		dir := filepath.Join(r.o.dir, fmt.Sprintf("wal-%d", rep))
		if err := copyTree(pristine, dir); err != nil {
			return err
		}
		for _, t := range dr.tenants {
			t.reset()
		}
		start := time.Now()
		if err := dr.open(dir); err != nil {
			return err
		}
		dr.warmUp(clients)
		setups = append(setups, time.Since(start).Seconds())
		if rep < dr.sz.setupReps-1 {
			if err := dr.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	defer dr.close() // on error paths; the success path checks the close
	r.e2e["setup_s"] = median(setups)
	r.note("setup_s samples %v", setups)
	if tr != nil {
		if err := dr.probeRestart(pristine, tr); err != nil {
			return err
		}
	}

	if err := dr.fixedPhase(tr); err != nil {
		return err
	}

	// Timed phase: the closed loop, untraced; a traced run spends the
	// second half of its time on traced ops.
	secs := time.Duration(r.o.seconds * float64(time.Second))
	if tr != nil {
		secs /= 2
	}
	st0 := dr.d.Stats().Server
	var timedIdx atomic.Int64
	p := closedLoop(clients, secs, func(c, k int) (time.Duration, bool) {
		t := dr.owned[c][k%len(dr.owned[c])]
		invalid := timedIdx.Add(1)-1 == int64(r.o.invalidEpochAt)
		lat, _, err := dr.runOp(t, nil, invalid)
		r.op(err)
		r.classLatency(t.g.app.name, lat)
		return lat, err == nil
	})
	st1 := dr.d.Stats().Server
	r.summarize(p)
	r.layers["serve.steals_per_op"] = float64(st1.Steals-st0.Steals) / float64(p.ops)
	r.layers["serve.rejected_per_op"] = float64(st1.Rejected-st0.Rejected) / float64(p.ops)

	var traced phase
	if tr != nil {
		traced = closedLoop(clients, secs, func(c, k int) (time.Duration, bool) {
			t := dr.owned[c][k%len(dr.owned[c])]
			lat, _, err := dr.runOp(t, tr, false)
			r.op(err)
			return lat, err == nil
		})
	}

	// The open daemon is the workload's long-lived state; the client's
	// request pools are not.
	for _, t := range dr.tenants {
		t.pool, t.adviseBody, t.prob = nil, nil, nil
	}
	r.e2e["live_heap_mb"] = liveHeapMB()

	if tr != nil {
		if err := r.finishTrace(tr, traced); err != nil {
			return err
		}
	}
	return dr.close()
}

// buildInputs makes the datacenter and tenantsPerApp tenants per
// application, each with its own allocation and epoch payload pool.
func (dr *daemonRun) buildInputs() error {
	seed := dr.r.o.seed
	var err error
	if dr.dc, err = topology.New(topology.EC2Profile(), seed); err != nil {
		return err
	}
	sz := dr.sz
	apps, err := paperApps(sz.meshRows, sz.meshCols, sz.aggMids, sz.aggLeaves, sz.kvFront, sz.kvStore)
	if err != nil {
		return err
	}
	for k := 0; k < sz.tenantsPerApp; k++ {
		for ai, a := range apps {
			idx := len(dr.tenants)
			g, err := newGroup(dr.dc, a, subSeed(seed, "group", idx))
			if err != nil {
				return err
			}
			t := &tenant{name: fmt.Sprintf("t%02d-%s", idx, g.app.name), g: g, seed: subSeed(seed, "advise", idx), nodes: sz.adviseNodes[ai]}
			body, err := json.Marshal(adviseReq{Tenant: t.name, Graph: g.app.graphJSON, Objective: string(g.app.objective),
				Metric: dr.metric, BudgetNodes: t.nodes, Seed: t.seed})
			if err != nil {
				return err
			}
			t.adviseBody = body
			if dr.hasEpoch() {
				// Two value sets per row block, alternating, so every
				// posted epoch changes the rows it re-measures.
				rng := rand.New(rand.NewSource(subSeed(seed, "pool", idx)))
				for p := 0; p < 2*rowBlocks; p++ {
					rows, tails := remeasure(dr.dc, g, p%rowBlocks, 1+float64(p)/8, rng)
					body, err := epochBody(t.name, len(g.hosts), rows, tails)
					if err != nil {
						return err
					}
					t.pool = append(t.pool, epochPayload{rows: rows, tailRows: tails, body: body})
				}
			}
			dr.tenants = append(dr.tenants, t)
		}
	}
	return nil
}

// generate writes the WAL tree every restart replays: per tenant, an
// initial full-matrix epoch, genEpochs re-measured 10% epochs, and one
// advice in the workload's metric.
func (dr *daemonRun) generate(dir string) error {
	d, err := serve.OpenDaemon(serve.DaemonConfig{Dir: dir})
	if err != nil {
		return err
	}
	for i, t := range dr.tenants {
		g := t.g
		n := len(g.hosts)
		rng := rand.New(rand.NewSource(subSeed(dr.r.o.seed, "gen", i)))
		t.mean, t.tail = core.NewMutableCostMatrix(n), core.NewMutableCostMatrix(n)
		for e := -1; e < dr.sz.genEpochs; e++ {
			rows, tails := fullRows(g.mean), fullRows(g.tail)
			if e >= 0 {
				rows, tails = remeasure(dr.dc, g, e%rowBlocks, 0.25+float64(e)/16, rng)
			}
			if _, _, err := d.AppendEpoch(t.name, n, rows, &serve.TailUpdate{Pct: tailPct, Rows: tails}); err != nil {
				d.Close()
				return err
			}
			t.apply(rows, tails)
		}
		t.publish()
		res, err := d.Advise(serve.AdviseRequest{
			Tenant:        t.name,
			Graph:         g.app.graph,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: g.app.objective, Metric: advisor.Metric(dr.metric)},
			RoundBudget:   solver.Budget{Nodes: t.nodes},
			Seed:          t.seed,
		})
		if err == nil && res.Err != nil {
			err = res.Err
		}
		if err != nil {
			d.Close()
			return err
		}
		t.lastDep = res.Outcome.Deployment
		t.lastAdvice = t.adviceRecord(dr.metric, res.Outcome.Cost, winnerOf(res.Outcome), t.lastDep)
		t.base = t.tenantState
		t.base.mean, t.base.tail = nil, nil
	}
	return d.Close()
}

func winnerOf(out *advisor.StreamOutcome) string {
	for i := len(out.Rounds) - 1; i >= 0; i-- {
		if out.Rounds[i].Winner != "" {
			return out.Rounds[i].Winner
		}
	}
	return ""
}

// adviceRecord is the advice record the daemon logs for an HTTP advise.
func (t *tenant) adviceRecord(metric string, cost float64, winner string, dep []int) *wal.AdviceRecord {
	return &wal.AdviceRecord{Epoch: t.epoch, Fingerprint: t.meanFP, Objective: string(t.g.app.objective),
		Metric: metric, Winner: winner, Cost: cost, Deployment: dep}
}

// copyTree copies a WAL tree of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// open restarts the daemon over dir and serves it on a loopback port.
func (dr *daemonRun) open(dir string) error {
	d, err := serve.OpenDaemon(serve.DaemonConfig{Dir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return err
	}
	dr.d = d
	real, traced := d.Handler(), dr.tracedHandler(d)
	dr.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get(hdrOp) != "" {
			traced.ServeHTTP(w, req)
			return
		}
		real.ServeHTTP(w, req)
	})}
	dr.served = make(chan struct{})
	go func() {
		defer close(dr.served)
		dr.srv.Serve(ln)
	}()
	dr.url = "http://" + ln.Addr().String()
	clients := clientCount()
	dr.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the listener, waits for its goroutine, and closes the daemon.
func (dr *daemonRun) close() error {
	if dr.d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := dr.srv.Shutdown(ctx)
	<-dr.served
	dr.client.CloseIdleConnections()
	if cerr := dr.d.Close(); err == nil {
		err = cerr
	}
	dr.d = nil
	return err
}

// warmUp runs one untimed op per tenant, each client on its own tenants.
func (dr *daemonRun) warmUp(clients int) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(ts []*tenant) {
			defer wg.Done()
			for _, t := range ts {
				_, _, err := dr.runOp(t, nil, false)
				dr.r.op(err)
			}
		}(dr.owned[c])
	}
	wg.Wait()
}

// opResult is what one op's requests returned.
type opResult struct {
	payload *epochPayload
	ep      *epochResp
	adv     *adviseResp
	warm    []int // the tenant's incumbent going into the advise
	invalid bool
}

// runOp issues one workload op for t, then checks its outputs. The
// latency covers the requests only; the checks run after the clock stops.
func (dr *daemonRun) runOp(t *tenant, tr *tracer, invalid bool) (time.Duration, opResult, error) {
	op := dr.opIDs.Add(1)
	res, lat, reqErr := dr.request(t, op, tr, invalid)
	checkErr := dr.check(t, res, op, tr)
	if reqErr != nil {
		return lat, res, fmt.Errorf("tenant %s op %d: %w", t.name, op, reqErr)
	}
	if checkErr != nil {
		return lat, res, fmt.Errorf("tenant %s op %d: %w", t.name, op, checkErr)
	}
	return lat, res, nil
}

// request posts the op's epoch and/or advise; the deferred function sets
// the latency on every return.
func (dr *daemonRun) request(t *tenant, op int64, tr *tracer, invalid bool) (res opResult, lat time.Duration, err error) {
	root := tr.id()
	start := time.Now()
	defer func() {
		end := time.Now()
		lat = end.Sub(start)
		tr.add(root, 0, op, rootOp, start, end)
	}()
	if dr.hasEpoch() {
		p := &t.pool[t.posted%len(t.pool)]
		body := p.body
		if invalid {
			res.invalid = true
			body = invalidEpoch(t, p)
		}
		var ack epochResp
		if err := dr.post("/v1/epoch", body, op, root, tr, &ack); err != nil {
			return res, 0, err
		}
		res.payload, res.ep = p, &ack
	}
	if dr.hasAdvise() {
		res.warm = t.lastDep
		var adv adviseResp
		if err := dr.post("/v1/advise", t.adviseBody, op, root, tr, &adv); err != nil {
			return res, 0, err
		}
		res.adv = &adv
	}
	return res, 0, nil
}

// invalidEpoch is p with a negative cost, which the daemon must refuse.
func invalidEpoch(t *tenant, p *epochPayload) []byte {
	rows := append([]wal.RowDelta(nil), p.rows...)
	bad := append([]float64(nil), rows[0].Values...)
	bad[(rows[0].Row+1)%len(bad)] = -1
	rows[0] = wal.RowDelta{Row: rows[0].Row, Values: bad}
	body, _ := epochBody(t.name, len(t.g.hosts), rows, p.tailRows) // finite floats always encode
	return body
}

// post sends one JSON request and decodes a 200 response into out. Any
// other status is an error.
func (dr *daemonRun) post(path string, body []byte, op, parent int64, tr *tracer, out any) error {
	req, err := http.NewRequest(http.MethodPost, dr.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(parent, 10))
	}
	resp, err := dr.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Errorf("%s: decoding the response: %w", path, err)
	}
	return nil
}

// check verifies the op's outputs against the client's replica: an epoch
// ack must carry the next epoch number and the replica's fingerprint; an
// advice must be an injective in-range deployment whose reported cost
// equals solver.Problem.Cost on the tenant's matrix, bit for bit.
func (dr *daemonRun) check(t *tenant, res opResult, op int64, tr *tracer) error {
	if res.ep == nil && res.adv == nil {
		return nil
	}
	root := tr.id()
	start := time.Now()
	defer func() { tr.add(root, 0, op, rootCheck, start, time.Now()) }()
	var errs []error
	if res.ep != nil {
		p := res.payload
		tr.time("core.publish", root, op, func() {
			t.apply(p.rows, p.tailRows)
			if tr != nil {
				t.publish()
			}
		})
		t.posted++
		want := fmt.Sprintf("%016x", uint64(t.meanFP))
		switch {
		case res.invalid:
			errs = append(errs, fmt.Errorf("the daemon acknowledged an invalid epoch"))
		case res.ep.Epoch != t.epoch || res.ep.Fingerprint != want:
			errs = append(errs, fmt.Errorf("epoch ack (%d, %s), replica says (%d, %s)", res.ep.Epoch, res.ep.Fingerprint, t.epoch, want))
		}
	}
	if res.adv != nil {
		if err := dr.checkAdvice(t, res.adv); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// problem is the tenant's cost-check problem over its current matrices.
func (dr *daemonRun) problem(t *tenant) (*solver.Problem, error) {
	t.publish()
	if t.prob == nil {
		primary, tie := t.meanSnap, (*core.CostMatrix)(nil)
		if dr.metric == string(advisor.MetricP99) {
			primary, tie = t.tailSnap, t.meanSnap
		}
		p, err := solver.NewProblemTie(t.g.app.graph, primary, tie, t.g.app.objective)
		if err != nil {
			return nil, err
		}
		t.prob, t.defaultCost = p, p.Cost(core.Identity(t.g.app.graph.NumNodes()))
	}
	return t.prob, nil
}

func (dr *daemonRun) checkAdvice(t *tenant, adv *adviseResp) error {
	if adv.Err != "" {
		return fmt.Errorf("advice error: %s", adv.Err)
	}
	if err := checkDeployment(adv.Deployment, t.g.app.graph.NumNodes(), t.meanSnap.Size()); err != nil {
		return err
	}
	prob, err := dr.problem(t)
	if err != nil {
		return err
	}
	cost := prob.Cost(core.Deployment(adv.Deployment))
	if math.Float64bits(cost) != math.Float64bits(adv.Cost) {
		return fmt.Errorf("advised cost %v, recomputed %v", adv.Cost, cost)
	}
	t.lastDep = adv.Deployment
	t.lastRatio = cost / t.defaultCost
	t.lastAdvice = t.adviceRecord(dr.metric, cost, adv.Winner, adv.Deployment)
	return nil
}

// checkDeployment requires an injective node -> instance map in range.
func checkDeployment(dep []int, nodes, instances int) error {
	if len(dep) != nodes {
		return fmt.Errorf("deployment has %d nodes, want %d", len(dep), nodes)
	}
	used := make([]bool, instances)
	for node, inst := range dep {
		if inst < 0 || inst >= instances {
			return fmt.Errorf("node %d on instance %d, outside [0,%d)", node, inst, instances)
		}
		if used[inst] {
			return fmt.Errorf("instance %d hosts two nodes", inst)
		}
		used[inst] = true
	}
	return nil
}

// tracedHandler mirrors Daemon.Handler's epoch and advise routes through
// the daemon's public Go API, recording a span at each layer boundary:
// serve.http around the handler, graphio.decode around request decoding,
// serve.append_epoch and serve.advise around the daemon calls, and
// serve.queue_wait and serve.solve placed from the Result's Queued and Ran.
func (dr *daemonRun) tracedHandler(d *serve.Daemon) http.Handler {
	ids := func(req *http.Request) (op, parent int64) {
		op, _ = strconv.ParseInt(req.Header.Get(hdrOp), 10, 64)
		parent, _ = strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
		return op, parent
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/epoch", func(w http.ResponseWriter, req *http.Request) {
		t := dr.tr
		op, parent := ids(req)
		id, start := t.id(), time.Now()
		defer func() { t.add(id, parent, op, "serve.http", start, time.Now()) }()
		var er epochReq
		var err error
		t.time("graphio.decode", id, op, func() { err = json.NewDecoder(req.Body).Decode(&er) })
		if err != nil {
			httpError(w, err)
			return
		}
		var tail *serve.TailUpdate
		if er.TailPct != 0 || len(er.TailRows) > 0 {
			tail = &serve.TailUpdate{Pct: er.TailPct, Rows: fromJSONRows(er.TailRows)}
		}
		var epoch int
		var fp core.Fingerprint
		t.time("serve.append_epoch", id, op, func() { epoch, fp, err = d.AppendEpoch(er.Tenant, er.N, fromJSONRows(er.Rows), tail) })
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, epochResp{Tenant: er.Tenant, Epoch: epoch, Fingerprint: fmt.Sprintf("%016x", uint64(fp))})
	})
	mux.HandleFunc("POST /v1/advise", func(w http.ResponseWriter, req *http.Request) {
		t := dr.tr
		op, parent := ids(req)
		id, start := t.id(), time.Now()
		defer func() { t.add(id, parent, op, "serve.http", start, time.Now()) }()
		var ar adviseReq
		var g *core.Graph
		var err error
		t.time("graphio.decode", id, op, func() {
			if err = json.NewDecoder(req.Body).Decode(&ar); err == nil {
				g, err = graphio.ReadGraph(bytes.NewReader(ar.Graph))
			}
		})
		if err != nil {
			httpError(w, err)
			return
		}
		aid, astart := t.id(), time.Now()
		res, err := d.Advise(serve.AdviseRequest{
			Tenant:        ar.Tenant,
			Graph:         g,
			ObjectiveSpec: advisor.ObjectiveSpec{Objective: solver.Objective(ar.Objective), Metric: advisor.Metric(ar.Metric)},
			RoundBudget:   solver.Budget{Nodes: ar.BudgetNodes},
			Seed:          ar.Seed,
		})
		aend := time.Now()
		t.add(aid, id, op, "serve.advise", astart, aend)
		if err != nil {
			httpError(w, err)
			return
		}
		q := astart.Add(res.Queued)
		t.add(t.id(), aid, op, "serve.queue_wait", astart, minTime(q, aend))
		t.add(t.id(), aid, op, "serve.solve", minTime(q, aend), minTime(q.Add(res.Ran), aend))
		resp := adviseResp{Tenant: ar.Tenant, CacheHits: res.CacheHits, CacheMisses: res.CacheMisses}
		if res.Err != nil {
			resp.Err = res.Err.Error()
		} else {
			resp.Deployment = res.Outcome.Deployment
			resp.Cost = res.Outcome.Cost
			resp.Winner = winnerOf(res.Outcome)
			resp.Rounds = len(res.Outcome.Rounds)
			resp.Interrupted = res.Outcome.Interrupted
		}
		writeJSON(w, resp)
	})
	return mux
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// httpError answers like the daemon's front end: 429 for admission
// refusals, 404 for unknown tenants, 400 otherwise.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, serve.ErrBusy), errors.Is(err, serve.ErrOverBudget):
		code = http.StatusTooManyRequests
	case errors.Is(err, serve.ErrUnknownTenant):
		code = http.StatusNotFound
	case errors.Is(err, serve.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": map[string]string{"message": err.Error()}})
}

// fixedPhase runs the seed-fixed op sequence — fixedPasses passes over the
// tenants in order, one op at a time — before any timed op, and derives
// from it every exactly repeatable figure: cost_ratio, the per-op counts,
// and the digest. Beside each op it replays the layers the daemon hides
// (the WAL append, the Prep build, k-means rounding, the portfolio solve)
// on the same inputs, as probe spans.
func (dr *daemonRun) fixedPhase(tr *tracer) error {
	passes := dr.sz.fixedPasses
	if dr.kind == "epoch-ingest" {
		passes = dr.sz.ingestPasses
	}
	shadowDir := filepath.Join(dr.r.o.dir, "shadow")
	for _, t := range dr.tenants {
		log, err := wal.Open(filepath.Join(shadowDir, t.name), wal.Options{SegmentBytes: math.MaxInt32}, nil)
		if err != nil {
			return err
		}
		t.shadow = log
	}
	defer func() {
		for _, t := range dr.tenants {
			t.shadow.Close()
			t.shadow = nil
		}
		os.RemoveAll(shadowDir)
	}()

	var ops, hits, misses int
	var nodes, portfolioNS, syncs, compactions, walBytes int64
	for pass := 0; pass < passes; pass++ {
		for _, t := range dr.tenants {
			before := walStats(dr.d)[t.name]
			_, res, err := dr.runOp(t, nil, false)
			dr.r.op(err)
			if err != nil {
				continue
			}
			after := walStats(dr.d)[t.name]
			ops++
			syncs += after.Syncs - before.Syncs
			compactions += after.Compactions - before.Compactions
			pr, err := dr.probe(t, res, tr, after.Compactions > before.Compactions)
			if err != nil {
				return err
			}
			walBytes += pr.walBytes
			nodes += pr.nodes
			portfolioNS += pr.portfolioNS
			if res.adv != nil {
				hits += res.adv.CacheHits
				misses += res.adv.CacheMisses
			}
		}
	}
	if ops == 0 {
		return fmt.Errorf("every op of the fixed sequence failed")
	}

	if dr.kind == "epoch-ingest" {
		// The ingested state must still yield good advice: one advise per
		// tenant prices the quality.
		for _, t := range dr.tenants {
			var adv adviseResp
			err := dr.post("/v1/advise", t.adviseBody, 0, 0, nil, &adv)
			if err == nil {
				err = dr.checkAdvice(t, &adv)
			}
			dr.r.op(err)
		}
	}

	ratio := 0.0
	for _, t := range dr.tenants {
		ratio += t.lastRatio
		dr.r.addDigest(t.name, t.lastDep)
	}
	dr.r.e2e["cost_ratio"] = ratio / float64(len(dr.tenants))
	dr.r.addDigest("cost_ratio", dr.r.e2e["cost_ratio"])
	dr.r.addDigest("fixed_ops", ops)

	ratioHits := 0.0
	if hits+misses > 0 {
		ratioHits = float64(hits) / float64(hits+misses)
	}
	f := float64(ops)
	dr.r.setCount("serve.cache_hit_ratio", ratioHits)
	dr.r.setCount("serve.cache_misses_per_op", float64(misses)/f)
	dr.r.setCount("solver.nodes_per_op", float64(nodes)/f)
	dr.r.setCount("wal.syncs_per_op", float64(syncs)/f)
	dr.r.setCount("wal.compactions_per_op", float64(compactions)/f)
	dr.r.setCount("wal.bytes_per_op", float64(walBytes)/f)
	if nodes > 0 {
		dr.r.layers["solver.ns_per_node"] = float64(portfolioNS) / float64(nodes)
	}
	return nil
}

// walStats indexes the daemon's per-tenant WAL counters by tenant.
func walStats(d *serve.Daemon) map[string]wal.Stats {
	out := map[string]wal.Stats{}
	for _, ts := range d.Stats().Tenants {
		out[ts.Tenant] = ts.WAL
	}
	return out
}

// probeResult is what replaying one op's hidden layers measured.
type probeResult struct {
	walBytes    int64
	nodes       int64
	portfolioNS int64
}

// probe replays, beside a completed op and on its inputs, the layer calls
// the daemon makes internally: the WAL records it appended (and the
// compaction snapshot, when it compacted), and for an advise the Prep build,
// the k-means rounding (both only when the daemon's cache missed, as only
// then did it pay them) and the warm-started portfolio solve.
func (dr *daemonRun) probe(t *tenant, res opResult, tr *tracer, compacted bool) (probeResult, error) {
	var pr probeResult
	t.publish()
	op := dr.opIDs.Load()
	root, start := tr.id(), time.Now()
	defer func() { tr.add(root, 0, op, rootProbe, start, time.Now()) }()
	appendRec := func(rec wal.Record, snap *wal.SnapshotRecord) error {
		var err error
		tr.time("wal.append", root, op, func() {
			b0 := t.shadow.Stats().ActiveBytes
			if err = t.shadow.Append(rec); err != nil {
				return
			}
			pr.walBytes += t.shadow.Stats().ActiveBytes - b0
			if snap != nil {
				if err = t.shadow.Compact(snap); err != nil {
					return
				}
				pr.walBytes += t.shadow.Stats().ActiveBytes
			}
		})
		return err
	}
	n := t.meanSnap.Size()
	if res.ep != nil {
		rec := &wal.EpochRecord{Epoch: t.epoch, Fingerprint: t.meanFP, N: n, Rows: rowsOf(t.meanSnap, t.changed),
			TailPct: tailPct, TailFingerprint: t.tailFP, TailRows: rowsOf(t.tailSnap, t.tailChgd)}
		var snap *wal.SnapshotRecord
		if compacted {
			snap = &wal.SnapshotRecord{Epoch: t.epoch, Fingerprint: t.meanFP, Matrix: t.meanSnap, Advice: t.lastAdvice,
				Tail: t.tailSnap, TailPct: tailPct, TailFingerprint: t.tailFP}
		}
		if err := appendRec(rec, snap); err != nil {
			return pr, err
		}
	}
	if res.adv == nil {
		return pr, nil
	}
	if err := appendRec(t.lastAdvice, nil); err != nil {
		return pr, err
	}

	primary, tie := t.meanSnap, (*core.CostMatrix)(nil)
	if dr.metric == string(advisor.MetricP99) {
		primary, tie = t.tailSnap, t.meanSnap
	}
	missed := res.adv.CacheMisses > 0
	var prob *solver.Problem
	var err error
	buildPrep := func() {
		if prob, err = solver.NewProblemTie(t.g.app.graph, primary, tie, t.g.app.objective); err != nil {
			return
		}
		prep := prob.Prep()
		if _, _, err = prep.Rounded(clusterK); err != nil {
			return
		}
		prep.CheapestRows()
		if t.g.app.objective == solver.LongestPath {
			prep.TransposedGraph()
		}
	}
	if missed {
		tr.time("cluster.round", root, op, func() { _, _, err = cluster.RoundCostMatrixPairs(primary, clusterK) })
		if err != nil {
			return pr, err
		}
		tr.time("solver.prep", root, op, buildPrep)
	} else {
		buildPrep()
	}
	if err != nil {
		return pr, err
	}
	if res.warm != nil {
		if err := prob.Prep().WarmStart(res.warm); err != nil {
			return pr, err
		}
	}
	sol, err := advisor.NewSolver("portfolio", clusterK, t.seed)
	if err != nil {
		return pr, err
	}
	cs, ok := sol.(solver.ContextSolver)
	if !ok {
		return pr, fmt.Errorf("portfolio is not a context solver")
	}
	var out *solver.Result
	t0 := time.Now()
	tr.time("solver.portfolio", root, op, func() {
		out, err = cs.SolveContext(context.Background(), prob, solver.Budget{Nodes: t.nodes})
	})
	pr.portfolioNS = int64(time.Since(t0))
	if err != nil {
		return pr, err
	}
	pr.nodes = out.Nodes
	return pr, nil
}

// rowsOf copies the listed rows of m into row deltas, as the daemon logs
// an epoch's changed rows.
func rowsOf(m *core.CostMatrix, rows []int) []wal.RowDelta {
	out := make([]wal.RowDelta, len(rows))
	for i, r := range rows {
		out[i] = wal.RowDelta{Row: r, Values: append([]float64(nil), m.Row(r)...)}
	}
	return out
}

// probeRestart replays one restart's recovery from outside, tenant by
// tenant over a copy of the pristine tree: wal.Open with a replay that
// folds every record into rebuilt matrices and verifies each epoch's
// fingerprint (wal.replay), then the cache re-seed for the last advice's
// metric (serve.reseed).
func (dr *daemonRun) probeRestart(pristine string, tr *tracer) error {
	dir := filepath.Join(dr.r.o.dir, "restart-probe")
	if err := copyTree(pristine, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entries, err := os.ReadDir(filepath.Join(dir, "tenants"))
	if err != nil {
		return err
	}
	root, start := tr.id(), time.Now()
	defer func() { tr.add(root, 0, 0, rootSetup, start, time.Now()) }()
	for _, e := range entries {
		var mean, tail *core.MutableCostMatrix
		var lastMetric string
		fold := func(dst **core.MutableCostMatrix, n int, rows []wal.RowDelta) {
			if *dst == nil {
				*dst = core.NewMutableCostMatrix(n)
			}
			for _, d := range rows {
				for j, v := range d.Values {
					(*dst).Set(d.Row, j, v)
				}
			}
		}
		var log *wal.Log
		tr.time("wal.replay", root, 0, func() {
			log, err = wal.Open(filepath.Join(dir, "tenants", e.Name()), wal.Options{}, func(rec wal.Record) error {
				switch r := rec.(type) {
				case *wal.EpochRecord:
					fold(&mean, r.N, r.Rows)
					if r.TailPct != 0 {
						fold(&tail, r.N, r.TailRows)
						if tail.Fingerprint() != r.TailFingerprint {
							return fmt.Errorf("replayed tail fingerprint mismatch at epoch %d", r.Epoch)
						}
					}
					if mean.Fingerprint() != r.Fingerprint {
						return fmt.Errorf("replayed fingerprint mismatch at epoch %d", r.Epoch)
					}
				case *wal.AdviceRecord:
					lastMetric = r.Metric
				case *wal.SnapshotRecord:
					mean, tail = replica(r.Matrix), nil
					if r.Tail != nil {
						tail = replica(r.Tail)
					}
					if r.Advice != nil {
						lastMetric = r.Advice.Metric
					}
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		if err := log.Close(); err != nil {
			return err
		}
		src := mean
		if lastMetric == string(advisor.MetricP99) {
			src = tail
		}
		tr.time("serve.reseed", root, 0, func() {
			snap, _ := src.Snapshot()
			var prob *solver.Problem
			if prob, err = solver.NewProblem(core.NewGraph(1), snap, solver.LongestLink); err != nil {
				return
			}
			cache := serve.NewCache(0)
			if _, err = cache.Rounded(src.Fingerprint(), clusterK, prob.Prep()); err != nil {
				return
			}
			cache.CheapestRows(src.Fingerprint(), prob.Prep())
		})
		if err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"cloudia/internal/advisor"
	"cloudia/internal/cloud"
	"cloudia/internal/core"
	"cloudia/internal/graphio"
	"cloudia/internal/solver"
	"cloudia/internal/topology"
	"cloudia/internal/wal"
	"cloudia/internal/workload"
)

// size fixes every input dimension of a run. fullSize is what the
// benchmark measures; the tests run tinySize.
type size struct {
	// The three paper applications, as advised through the daemon.
	meshRows, meshCols int
	aggMids, aggLeaves int
	kvFront, kvStore   int
	tenantsPerApp      int
	// genEpochs is how many 10%-row epochs each tenant's pre-generated
	// log holds after its initial full-matrix epoch; below the daemon's
	// compaction interval, so a restart replays them all.
	genEpochs int
	// adviseNodes is the node budget of one daemon advise, per application
	// in paperApps order. The aggregation tree gets the largest, so that it
	// — the class whose op time varies least between allocations — is the
	// middle class p50 falls in.
	adviseNodes [3]int64
	// setupReps is how many restarts a daemon workload times; setup_s is
	// their median.
	setupReps int
	// fixedPasses is the length of the fixed op sequence, in passes over
	// the tenants; ingestPasses replaces it for epoch-ingest.
	fixedPasses, ingestPasses int

	// The same applications sized for the streaming advisor.
	sMeshRows, sMeshCols int
	sAggMids, sAggLeaves int
	sKVFront, sKVStore   int
	// streamRoundNodes is the node budget of one streaming round.
	streamRoundNodes int64
	// streamInputs is how many distinct (application, allocation) inputs
	// the stream workload cycles through.
	streamInputs    int
	streamSetupReps int
}

var fullSize = size{
	meshRows: 10, meshCols: 10,
	aggMids: 9, aggLeaves: 90,
	kvFront: 20, kvStore: 80,
	tenantsPerApp: 3,
	genEpochs:     24,
	adviseNodes:   [3]int64{4000, 16000, 4000},
	setupReps:     5,
	fixedPasses:   2, ingestPasses: 32,

	sMeshRows: 6, sMeshCols: 6,
	sAggMids: 5, sAggLeaves: 30,
	sKVFront: 6, sKVStore: 30,
	streamRoundNodes: 2000,
	streamInputs:     24,
	streamSetupReps:  5,
}

var tinySize = size{
	meshRows: 3, meshCols: 4,
	aggMids: 2, aggLeaves: 9,
	kvFront: 3, kvStore: 9,
	tenantsPerApp: 1,
	genEpochs:     3,
	adviseNodes:   [3]int64{200, 400, 200},
	setupReps:     2,
	fixedPasses:   1, ingestPasses: 2,

	sMeshRows: 3, sMeshCols: 3,
	sAggMids: 2, sAggLeaves: 6,
	sKVFront: 2, sKVStore: 7,
	streamRoundNodes: 100,
	streamInputs:     3,
	streamSetupReps:  1,
}

// occupancy pre-fills the simulated datacenter like the CLI's default, so
// allocations fragment across racks.
const occupancy = 0.6

// overAllocation is the paper's 10% extra instances.
const overAllocation = 0.1

// tailPct is the percentile every posted tail matrix estimates.
const tailPct = 99

// clusterK is the portfolio's default cluster count, which the daemon
// resolves for an advise that names none.
const clusterK = 20

// rowBlocks splits a matrix into tenths: one epoch re-measures one block.
const rowBlocks = 10

// samplesPerLink is how many RTT samples one re-measured link takes; the
// mean row is their average and the tail row their maximum.
const samplesPerLink = 8

// app is one of the paper's three applications with its deployment graph.
type app struct {
	name      string
	graph     *core.Graph
	objective solver.Objective
	graphJSON json.RawMessage
}

// paperApps builds the behavioral-simulation mesh (longest link), the
// aggregation tree (longest path) and the key-value bipartite graph
// (longest link) at the given sizes.
func paperApps(meshRows, meshCols, aggMids, aggLeaves, kvFront, kvStore int) ([]*app, error) {
	defs := []struct {
		w   workload.Workload
		obj solver.Objective
	}{
		{&workload.BehavioralSim{Rows: meshRows, Cols: meshCols}, solver.LongestLink},
		{&workload.AggregationQuery{Mids: aggMids, Leaves: aggLeaves}, solver.LongestPath},
		{&workload.KVStore{Frontends: kvFront, Storage: kvStore}, solver.LongestLink},
	}
	var apps []*app
	for _, d := range defs {
		g, err := d.w.Graph()
		if err != nil {
			return nil, err
		}
		var raw, compact bytes.Buffer
		if err := graphio.WriteGraph(&raw, g); err != nil {
			return nil, err
		}
		if err := json.Compact(&compact, raw.Bytes()); err != nil {
			return nil, err
		}
		apps = append(apps, &app{name: d.w.Name(), graph: g, objective: d.obj, graphJSON: compact.Bytes()})
	}
	return apps, nil
}

// group is one tenant's allocation in the simulated cloud: the
// application it deploys, the hosts its instances landed on, and the mean
// and tail cost matrices the tenant starts from.
type group struct {
	app        *app
	hosts      []int
	mean, tail *core.CostMatrix
}

// newGroup allocates the application's nodes plus 10% through a fresh
// provider and prices the allocation: the mean matrix is the provider's
// ground-truth mean RTT, the tail matrix a sampled worst case per link.
func newGroup(dc *topology.Datacenter, a *app, seed int64) (*group, error) {
	prov, err := cloud.NewProvider(dc, occupancy, seed)
	if err != nil {
		return nil, err
	}
	insts, err := prov.RunInstances(advisor.OverAllocate(a.graph.NumNodes(), overAllocation))
	if err != nil {
		return nil, err
	}
	g := &group{app: a, mean: cloud.MeanRTTMatrix(dc, insts)}
	for _, in := range insts {
		g.hosts = append(g.hosts, in.Host)
	}
	n := len(insts)
	g.tail = core.NewCostMatrix(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				_, hi := sampleLink(dc, g.hosts[i], g.hosts[j], 0, rng)
				if hi < g.mean.At(i, j) {
					hi = g.mean.At(i, j)
				}
				g.tail.Set(i, j, hi)
			}
		}
	}
	return g, nil
}

// sampleLink re-measures one link: the mean and maximum of samplesPerLink
// RTT samples at the given datacenter time.
func sampleLink(dc *topology.Datacenter, a, b int, hours float64, rng *rand.Rand) (mean, hi float64) {
	sum := 0.0
	for s := 0; s < samplesPerLink; s++ {
		v := dc.SampleRTT(a, b, hours, rng)
		sum += v
		if v > hi {
			hi = v
		}
	}
	return sum / samplesPerLink, hi
}

// epochPayload is one re-measurement of a block of rows, as mean and tail
// row deltas plus the request body that posts it.
type epochPayload struct {
	rows, tailRows []wal.RowDelta
	body           []byte
}

// remeasure builds the epoch re-measuring row block `block` of the group's
// allocation.
func remeasure(dc *topology.Datacenter, g *group, block int, hours float64, rng *rand.Rand) (rows, tailRows []wal.RowDelta) {
	n := len(g.hosts)
	lo, hi := block*n/rowBlocks, (block+1)*n/rowBlocks
	for i := lo; i < hi; i++ {
		mv, tv := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				mv[j], tv[j] = sampleLink(dc, g.hosts[i], g.hosts[j], hours, rng)
			}
		}
		rows = append(rows, wal.RowDelta{Row: i, Values: mv})
		tailRows = append(tailRows, wal.RowDelta{Row: i, Values: tv})
	}
	return rows, tailRows
}

// fullRows returns every row of m as row deltas.
func fullRows(m *core.CostMatrix) []wal.RowDelta {
	rows := make([]wal.RowDelta, m.Size())
	for i := range rows {
		rows[i] = wal.RowDelta{Row: i, Values: append([]float64(nil), m.Row(i)...)}
	}
	return rows
}

// rowJSON, epochReq and epochResp are the wire form of POST /v1/epoch.
type rowJSON struct {
	Row    int       `json:"row"`
	Values []float64 `json:"values"`
}

type epochReq struct {
	Tenant   string    `json:"tenant"`
	N        int       `json:"n"`
	Rows     []rowJSON `json:"rows"`
	TailPct  float64   `json:"tail_pct,omitempty"`
	TailRows []rowJSON `json:"tail_rows,omitempty"`
}

type epochResp struct {
	Tenant      string `json:"tenant"`
	Epoch       int    `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
}

// adviseReq and adviseResp are the wire form of POST /v1/advise.
type adviseReq struct {
	Tenant      string          `json:"tenant"`
	Graph       json.RawMessage `json:"graph"`
	Objective   string          `json:"objective"`
	Metric      string          `json:"metric"`
	BudgetNodes int64           `json:"budget_nodes"`
	Seed        int64           `json:"seed"`
}

type adviseResp struct {
	Tenant      string  `json:"tenant"`
	Deployment  []int   `json:"deployment"`
	Cost        float64 `json:"cost"`
	Winner      string  `json:"winner,omitempty"`
	Rounds      int     `json:"rounds"`
	Interrupted bool    `json:"interrupted"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Err         string  `json:"error,omitempty"`
}

func toJSONRows(rows []wal.RowDelta) []rowJSON {
	out := make([]rowJSON, len(rows))
	for i, r := range rows {
		out[i] = rowJSON{Row: r.Row, Values: r.Values}
	}
	return out
}

func fromJSONRows(rows []rowJSON) []wal.RowDelta {
	out := make([]wal.RowDelta, len(rows))
	for i, r := range rows {
		out[i] = wal.RowDelta{Row: r.Row, Values: r.Values}
	}
	return out
}

// epochBody encodes an epoch request posting mean and tail rows.
func epochBody(tenant string, n int, rows, tailRows []wal.RowDelta) ([]byte, error) {
	return json.Marshal(epochReq{Tenant: tenant, N: n, Rows: toJSONRows(rows), TailPct: tailPct, TailRows: toJSONRows(tailRows)})
}

// subSeed derives a deterministic seed for a named input from the run seed.
func subSeed(seed int64, name string, idx int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, idx)
	return int64(h.Sum64() >> 1)
}

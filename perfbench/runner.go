package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cloudia/internal/cluster"
)

// runner carries one run's accounting: ops attempted and failed, the
// mismatches found, the metrics, and the digest inputs.
type runner struct {
	o options

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string

	e2e    map[string]float64
	layers map[string]float64

	// digestItems are the run's exactly repeatable results, in order.
	digestItems []string

	// walMedium names the filesystem the WAL lives on ("" when the
	// workload writes none).
	walMedium string
	tracePath string
	notes     []string
	// byClass holds timed latencies (ms) per op class, for the diagnostic
	// that shows where the percentiles fall.
	byClass map[string][]float64
}

func newRunner(o options) *runner {
	return &runner{o: o, e2e: map[string]float64{}, layers: map[string]float64{}, byClass: map[string][]float64{}}
}

// classLatency records one timed op's latency under its class.
func (r *runner) classLatency(class string, lat time.Duration) {
	r.mu.Lock()
	r.byClass[class] = append(r.byClass[class], float64(lat)/1e6)
	r.mu.Unlock()
}

// op accounts one attempted op; a non-nil err marks it failed.
func (r *runner) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

// note records a diagnostic line printed with the run.
func (r *runner) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// addDigest appends exactly repeatable results to the digest.
func (r *runner) addDigest(name string, v any) {
	switch x := v.(type) {
	case float64:
		v = strconv.FormatUint(math.Float64bits(x), 16)
	case []int:
		parts := make([]string, len(x))
		for i, n := range x {
			parts[i] = strconv.Itoa(n)
		}
		v = strings.Join(parts, ",")
	}
	r.digestItems = append(r.digestItems, fmt.Sprintf("%s=%v", name, v))
}

// digest hashes the workload, seed-derived results and counts.
func (r *runner) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", r.o.workload)
	for _, it := range r.digestItems {
		fmt.Fprintf(h, "%s\n", it)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// setCount records a per-op count metric computed from the fixed op
// sequence; such counts repeat exactly and go into the digest.
func (r *runner) setCount(name string, v float64) {
	r.layers[name] = v
	r.addDigest(name, v)
}

// phase is one timed closed-loop phase's raw measurements, one entry per
// completed op.
type phase struct {
	lat     []float64       // ms, failed ops as +Inf
	at      []time.Duration // completion time, from the start of the phase
	cpuAt   []time.Duration // process CPU time at completion, from the start
	ops     int
	wall    time.Duration
	allocMB float64
	gcs     uint32
}

// closedLoop runs op on `clients` goroutines, each issuing its next op only
// after the previous one returns, until d has passed. op returns the op's
// latency and whether it succeeded; k counts the client's own ops.
func closedLoop(clients int, d time.Duration, op func(client, k int) (time.Duration, bool)) phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	per := make([]phase, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &per[c]
			for k := 0; time.Now().Before(deadline); k++ {
				lat, ok := op(c, k)
				v := float64(lat) / 1e6
				if !ok {
					v = math.Inf(1)
				}
				p.lat = append(p.lat, v)
				p.at = append(p.at, time.Since(start))
				p.cpuAt = append(p.cpuAt, processCPU()-cpu0)
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	for _, c := range per {
		p.lat = append(p.lat, c.lat...)
		p.at = append(p.at, c.at...)
		p.cpuAt = append(p.cpuAt, c.cpuAt...)
	}
	p.ops = len(p.lat)
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	p.gcs = ms1.NumGC - ms0.NumGC
	return p
}

// maxWindows bounds how many windows a timed phase is cut into.
const maxWindows = 11

// summarize turns a phase into the timing end-to-end metrics. Each timing
// figure is the mean over windows of the phase — consecutive runs of at
// least 100 ops, so each window's p90 still has ten ops beyond it — of that
// window's figure. The host's speed flips between a fast and a slow state
// every few seconds, slowing every op by about a third, and a window's p50
// lands in one state or the other. A median over windows then jumps
// between the two with the share of slow windows; the mean moves with that
// share in proportion.
func (r *runner) summarize(p phase) {
	if p.ops == 0 {
		return
	}
	order := make([]int, p.ops)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.at[order[a]] < p.at[order[b]] })
	windows := max(1, min(maxWindows, p.ops/100))
	var p50, p90, thr, cpu []float64
	var prevAt, prevCPU time.Duration
	for w := 0; w < windows; w++ {
		idx := order[w*p.ops/windows : (w+1)*p.ops/windows]
		lat := make([]float64, len(idx))
		for k, i := range idx {
			lat[k] = p.lat[i]
		}
		last := idx[len(idx)-1]
		p50 = append(p50, percentile(lat, 0.50))
		p90 = append(p90, percentile(lat, 0.90))
		thr = append(thr, float64(len(idx))/(p.at[last]-prevAt).Seconds())
		cpu = append(cpu, float64(p.cpuAt[last]-prevCPU)/1e6/float64(len(idx)))
		prevAt, prevCPU = p.at[last], p.cpuAt[last]
	}
	r.e2e["op_p50_ms"] = mean(p50)
	r.e2e["op_p90_ms"] = mean(p90)
	r.e2e["ops_per_s"] = mean(thr)
	r.e2e["cpu_ms_per_op"] = mean(cpu)
	if p.ops < 100 {
		r.note("op_p90_ms rests on %d ops (fewer than 100)", p.ops)
	}
	r.layers["runtime.alloc_mb_per_op"] = p.allocMB / float64(p.ops)
	r.layers["runtime.gc_per_op"] = float64(p.gcs) / float64(p.ops)
	r.note("timed phase: %d ops in %.3fs; latency p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f ms",
		p.ops, p.wall.Seconds(), percentile(p.lat, 0.1), percentile(p.lat, 0.25), percentile(p.lat, 0.5),
		percentile(p.lat, 0.75), percentile(p.lat, 0.9), percentile(p.lat, 0.95), percentile(p.lat, 0.99))
	r.note("per window: p50 %s, p90 %s ms, %s ops/s, cpu %s ms/op", fmtList(p50), fmtList(p90), fmtList(thr), fmtList(cpu))
	classes := make([]string, 0, len(r.byClass))
	for c := range r.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := r.byClass[c]
		r.note("class %-22s %5d ops (%.3f), p10 %.3f p50 %.3f p90 %.3f ms", c, len(l), float64(len(l))/float64(p.ops),
			percentile(l, 0.1), percentile(l, 0.5), percentile(l, 0.9))
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean of a small sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of a small sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB is the heap still referenced after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clientCount is the closed loop's concurrency: two callers, but never
// more than the machine has CPUs.
func clientCount() int {
	return min(2, runtime.NumCPU())
}

// diagnostics are the noise figures printed with every run and never gated.
type diagnostics struct {
	steal0, total0 uint64
	kmeans0        float64
}

func startDiagnostics() diagnostics {
	var d diagnostics
	d.steal0, d.total0 = cpuStat()
	d.kmeans0 = hostKMeansMS()
	return d
}

// hostKMeansMS times a fixed cluster.KMeans1D problem, the best of three:
// the host's speed at one moment, so a run's start and end show drift that
// the steal share does not.
func hostKMeansMS() float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := cluster.KMeans1D(xs, clusterK); err != nil {
			return 0
		}
		best = min(best, float64(time.Since(start))/1e6)
	}
	return best
}

// cpuStat reads the aggregate steal and total jiffies from /proc/stat.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (d diagnostics) print(w interface{ Write([]byte) (int, error) }, r *runner) {
	steal1, total1 := cpuStat()
	share := 0.0
	if total1 > d.total0 {
		share = float64(steal1-d.steal0) / float64(total1-d.total0)
	}
	medium := r.walMedium
	if medium == "" {
		medium = "none"
	}
	fmt.Fprintf(w, "diag: nproc %d, GOMAXPROCS %d, %s, wal medium %s, host.steal_share %.4f, host.kmeans_ms %.3f at start %.3f at end\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), medium, share, d.kmeans0, hostKMeansMS())
	for _, n := range r.notes {
		fmt.Fprintln(w, "diag:", n)
	}
}

// fsMedium names the filesystem holding dir.
func fsMedium(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xEF53:     "ext4",
		0x794c7630: "overlayfs",
		0x9123683E: "btrfs",
		0x58465342: "xfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

// tracer returns the run's span recorder, nil when the run is untraced.
// Spans go to a file beside the run directory, so they outlive the run's
// scratch files.
func (r *runner) tracer() *tracer {
	if !r.o.trace {
		return nil
	}
	r.tracePath = filepath.Join(filepath.Dir(r.o.dir), fmt.Sprintf("trace-%s-%d.jsonl", r.o.workload, r.o.seed))
	return newTracer()
}

// finishTrace prints the traced run's layer breakdown, records it as
// per-layer metrics with the tracing overhead — the traced phase's p50
// against the untraced one — and writes the spans.
func (r *runner) finishTrace(tr *tracer, traced phase) error {
	p50 := percentile(traced.lat, 0.5)
	r.note("traced phase: %d ops, op_p50_ms %.4f", traced.ops, p50)
	if base := r.e2e["op_p50_ms"]; base > 0 {
		r.layers["trace.overhead_ratio"] = p50/base - 1
	}
	rep := tr.analyze()
	rep.print(r.o.log)
	for name, v := range rep.selfPerRoot {
		r.layers[layerMetric(name)] = v
	}
	r.layers["trace.unattributed_share"] = rep.unattributed
	return tr.write(r.tracePath)
}

// layerMetric maps a span name to its per-layer metric.
func layerMetric(span string) string {
	switch span {
	case "serve.http", "serve.advise":
		return span + "_self_ms"
	}
	return span + "_ms"
}

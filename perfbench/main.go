// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real program — the durable serve daemon behind
// its HTTP front end, or the streaming advisor — checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ones) as
// the last line of standard output:
//
//	perfbench --workload advise-steady --seed 1 --seconds 35 --trace 0
//
// See README.md for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics a user of the system sees, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"cost_ratio", "ratio"},
	{"live_heap_mb", "MiB"},
	{"failed_share", "ratio"},
}

// perLayer lists the single-layer metrics a traced run prints, named after
// the package whose public functions the benchmark times.
var perLayer = []struct{ name, unit string }{
	{"serve.http_self_ms", "ms"},
	{"graphio.decode_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.steals_per_op", "count"},
	{"serve.rejected_per_op", "count"},
	{"serve.solve_ms", "ms"},
	{"serve.advise_self_ms", "ms"},
	{"solver.portfolio_ms", "ms"},
	{"solver.nodes_per_op", "count"},
	{"solver.ns_per_node", "ns"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_misses_per_op", "count"},
	{"cluster.round_ms", "ms"},
	{"solver.prep_ms", "ms"},
	{"serve.append_epoch_ms", "ms"},
	{"core.publish_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.syncs_per_op", "count"},
	{"wal.bytes_per_op", "B"},
	{"wal.compactions_per_op", "count"},
	{"wal.replay_ms", "ms"},
	{"serve.reseed_ms", "ms"},
	{"advisor.round_ms", "ms"},
	{"advisor.rounds_per_op", "count"},
	{"advisor.first_advice_ms", "ms"},
	{"measure.stream_ms", "ms"},
	{"measure.samples_per_op", "count"},
	{"sketch.tail_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_per_op", "count"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runner) error{
	"advise-steady": runDaemonWorkload,
	"epoch-refresh": runDaemonWorkload,
	"epoch-ingest":  runDaemonWorkload,
	"stream-advise": runStreamWorkload,
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	// dir holds the run's WAL trees and trace file; it is removed at the
	// end except for the trace file.
	dir string
	// invalidEpochAt, when >= 0, makes the timed phase's op with that index
	// post a deliberately invalid epoch (tests only).
	invalidEpochAt int
	log            io.Writer
}

// outcome is what a run reports.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	e2e    map[string]float64
	layers map[string]float64
	digest string
	errs   []string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 35, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	o.size = fullSize
	o.invalidEpochAt = -1
	o.log = os.Stdout
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o.dir = filepath.Join(wd, ".bench_build", fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))

	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles its outcome. Setup failures are
// errors; wrong outputs are counted and reported through the outcome.
func run(o options) (*outcome, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.dir)

	r := newRunner(o)
	diag := startDiagnostics()
	if err := workloads[o.workload](r); err != nil {
		return nil, err
	}
	diag.print(o.log, r)

	out := &outcome{
		Attempted: r.attempted,
		Failed:    r.failed,
		e2e:       r.e2e,
		layers:    r.layers,
		digest:    r.digest(),
		errs:      r.errs,
	}
	if out.Attempted > 0 {
		out.e2e["failed_share"] = float64(out.Failed) / float64(out.Attempted)
	}
	out.Correct = out.Failed == 0 && len(out.errs) == 0
	for i, e := range out.errs {
		if i == 10 {
			fmt.Fprintf(o.log, "check: ... %d more\n", len(out.errs)-10)
			break
		}
		fmt.Fprintln(o.log, "check:", e)
	}

	fmt.Fprintf(o.log, "workload %s seed %d: %d ops attempted, %d failed\n", o.workload, o.seed, out.Attempted, out.Failed)
	for _, m := range endToEnd {
		fmt.Fprintf(o.log, "  %-26s %14.6g %s\n", m.name, out.e2e[m.name], m.unit)
	}
	if o.trace {
		fmt.Fprintln(o.log, "per-layer (self time per op, counts per op):")
		for _, m := range perLayer {
			fmt.Fprintf(o.log, "  %-26s %14.6g %s\n", m.name, out.layers[m.name], m.unit)
		}
		if r.tracePath != "" {
			fmt.Fprintln(o.log, "spans written to", r.tracePath)
		}
	}
	fmt.Fprintf(o.log, "digest %s\n", out.digest)

	out.Metrics = map[string]metric{}
	if o.trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.name == "failed_share" {
				// Zero on every correct run; the result line's attempted
				// and failed fields carry it.
				continue
			}
			out.Metrics[m.name] = metric{out.e2e[m.name], m.unit}
		}
	}
	return out, nil
}

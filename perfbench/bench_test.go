package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// tiny returns options for a fast run of workload at the test size.
func tiny(t *testing.T, workload string, seed int64, trace bool) (options, *bytes.Buffer) {
	t.Helper()
	var log bytes.Buffer
	return options{
		workload:       workload,
		seed:           seed,
		seconds:        0.4,
		trace:          trace,
		size:           tinySize,
		dir:            filepath.Join(t.TempDir(), "run"),
		invalidEpochAt: -1,
		log:            &log,
	}, &log
}

// TestEveryWorkloadPrintsEveryMetric runs every workload at the tiny size,
// untraced and traced, and requires each named metric to print with its
// unit and to reach the result line.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				o, log := tiny(t, w, 3, trace)
				out, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d errs=%v\n%s", out.Correct, out.Attempted, out.Failed, out.errs, log)
				}
				want := endToEnd
				if trace {
					want = slices.Concat(endToEnd, perLayer)
				}
				for _, m := range want {
					line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`)
					if !line.MatchString(log.String()) {
						t.Errorf("metric %s [%s] not printed\n%s", m.name, m.unit, log)
					}
				}
				results := endToEnd
				if trace {
					results = perLayer
				}
				for _, m := range results {
					if m.name == "failed_share" {
						continue
					}
					got, ok := out.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("result line lacks %s [%s]: %+v", m.name, m.unit, got)
					}
				}
				if !trace && out.e2e["setup_s"] <= 0 {
					t.Errorf("setup_s = %v", out.e2e["setup_s"])
				}
			})
		}
	}
}

// TestInvalidEpochCountsAsFailed posts one deliberately invalid epoch in
// the timed phase: the daemon refuses it, the op counts as failed, and the
// run carries on to the end.
func TestInvalidEpochCountsAsFailed(t *testing.T) {
	for _, w := range []string{"epoch-ingest", "epoch-refresh"} {
		t.Run(w, func(t *testing.T) {
			o, log := tiny(t, w, 5, false)
			o.invalidEpochAt = 0
			out, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 1 || out.Correct {
				t.Fatalf("failed=%d correct=%v, want exactly the invalid epoch failed\n%s", out.Failed, out.Correct, log)
			}
			if out.Attempted < 10 {
				t.Fatalf("run stopped after %d ops", out.Attempted)
			}
			if share := out.e2e["failed_share"]; share != 1/float64(out.Attempted) {
				t.Errorf("failed_share = %v, want 1/%d", share, out.Attempted)
			}
		})
	}
}

// TestDigestFollowsSeed requires the determinism digest to repeat for one
// seed and change with the seed, which shows the seed reaches the inputs.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			digest := func(seed int64) string {
				o, _ := tiny(t, w, seed, false)
				out, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				return out.digest
			}
			a, b, c := digest(7), digest(7), digest(8)
			if a != b {
				t.Errorf("seed 7 printed digests %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 printed the same digest %s", a)
			}
		})
	}
}

// TestSelfTime checks the span analysis on a hand-built trace: self time is
// a span minus the union of its children, and the unattributed share is the
// op time no child covers.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) int64 { return ms * 1e6 }
	tr.spans = []span{
		{ID: 1, Name: rootOp, Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "serve.http", Start: at(1), End: at(9)},
		{ID: 3, Parent: 2, Name: "serve.advise", Start: at(2), End: at(6)},
		{ID: 4, Parent: 2, Name: "graphio.decode", Start: at(5), End: at(8)},
	}
	rep := tr.analyze()
	want := map[string]float64{"serve.http": 2, "serve.advise": 4, "graphio.decode": 3}
	for name, ms := range want {
		if got := rep.selfPerRoot[name]; got != ms {
			t.Errorf("self %s = %v ms, want %v", name, got, ms)
		}
	}
	if rep.unattributed != 0.2 {
		t.Errorf("unattributed share %v, want 0.2", rep.unattributed)
	}
}

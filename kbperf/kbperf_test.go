package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// tiny shrinks a run to a few hundred entities and a few dozen queries.
func tiny(t *testing.T, workload string, trace bool) params {
	return params{
		workload: workload, seed: 7, trace: trace, dir: t.TempDir(),
		entities: 300, types: 12, perM: 8, maxM: 3, k: 5, maxRows: 10,
		setups: 1, warmup: 4, passes: 2, updates: 3, ops: 60, sample: 5,
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{queryCold, querySharded, serveMixed} {
		for _, trace := range []bool{false, true} {
			p := tiny(t, wl, trace)
			name := wl
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				o, err := runWorkload(p)
				if err != nil {
					t.Fatal(err)
				}
				res := resultOf(o, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d problems=%q", res.Correct, res.Failed, res.Attempted, o.problems)
				}
				want := e2eUnits
				if trace {
					want = layerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %s", name, m, unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				for _, c := range o.checks {
					if bytes.HasPrefix([]byte(c), []byte("FAIL")) && !bytes.Contains([]byte(c), []byte("layer-sum")) {
						t.Errorf("check: %s", c)
					}
				}
				if trace {
					checkTrace(t, o.spans)
				}
			})
		}
	}
}

// checkTrace round-trips the spans through the trace writer and checks
// that each operation's self times add up to its root span.
func checkTrace(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var back []span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		back = append(back, s)
	}
	if len(back) != len(spans) || back[len(back)-1] != spans[len(spans)-1] {
		t.Fatalf("read back %d spans, wrote %d", len(back), len(spans))
	}
	self := selfTimes(back)
	bySelf, byRoot := map[int]int64{}, map[int]int64{}
	for _, s := range back {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		bySelf[s.Req] += self[s.ID]
		if s.Parent == 0 {
			byRoot[s.Req] += s.dur()
		}
	}
	for req, d := range byRoot {
		// Self times are truncated to whole nanoseconds per span.
		if diff := d - bySelf[req]; diff < 0 || diff > 16 {
			t.Errorf("op %d: self times sum to %d ns, root span lasts %d ns", req, bySelf[req], d)
		}
	}
}

func TestSelfTimesSplitParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "leg", Start: 10, End: 60},
		{ID: 3, Parent: 1, Req: 1, Name: "leg", Start: 30, End: 80},
		{ID: 4, Parent: 3, Req: 1, Name: "inner", Start: 70, End: 80},
	}
	got := selfTimes(spans)
	// op: uncovered 0-10 and 80-100. The legs share 30-60 evenly; the
	// second leg's last 10 belong to its child.
	want := map[int]int64{1: 30, 2: 35, 3: 25, 4: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, got[id], w)
		}
	}
}

func TestZipfDrawsFixedMultiset(t *testing.T) {
	counts := func(seed int64) map[int]int {
		m := map[int]int{}
		for _, i := range zipfDraws(rand.New(rand.NewSource(seed)), 50, 400, 1.2) {
			m[i]++
		}
		return m
	}
	a, b := counts(1), counts(2)
	n := 0
	for i, c := range a {
		n += c
		if b[i] != c {
			t.Fatalf("index %d drawn %d times with seed 1, %d with seed 2", i, c, b[i])
		}
	}
	if n != 400 || a[0] <= a[1] || a[1] <= a[10] {
		t.Fatalf("draws %d, counts %d/%d/%d: want 400 draws falling with rank", n, a[0], a[1], a[10])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics a run prints in
// step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the benchmark", what, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eUnits)
	same("per_layer", b.PerLayer, layerUnits)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{queryCold, querySharded, serveMixed}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"
)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: %d names, want %d:\n got %v\nwant %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: name %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// TestWorkloadsSmoke runs every workload for 300 ms, untraced and (not
// under -short: the cells build a structure each) traced, and checks that
// the run verifies and prints exactly the roster. The runs share the
// CPUs: nothing here asserts a speed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.name + "/untraced"
			want := names(endToEnd)
			if trace {
				name, want = wl.name+"/traced", names(perLayer)
			}
			t.Run(name, func(t *testing.T) {
				if trace && testing.Short() {
					t.Skip("traced smoke runs are skipped under -short")
				}
				t.Parallel()
				cfg := runConfig{seed: 2, seconds: 300 * time.Millisecond, trace: trace, setups: 1,
					spans: t.TempDir() + "/spans.csv"}
				var log bytes.Buffer
				rep, err := runOne(&wl, cfg, &log)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("correct %v, failed %d of %d attempted\n%s", rep.Correct, rep.Failed, rep.Attempted, log.String())
				}
				var got []string
				for k, v := range rep.Metrics {
					got = append(got, k)
					if !trace && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must be positive", k, v.Value)
					}
				}
				sameSet(t, "metrics printed", got, want)
			})
		}
	}
}

// TestRosterPinned holds the three places that name metrics and workloads
// to one roster: the program's tables, BENCHMARK.json and README.md.
func TestRosterPinned(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Paths     []string
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []named, want []metricDef) {
		var gotNames []string
		byName := map[string]metricDef{}
		for _, d := range want {
			byName[d.name] = d
		}
		for _, g := range got {
			gotNames = append(gotNames, g.Name)
			d := byName[g.Name]
			if g.Unit != d.unit || (g.Better == "lower") != d.lower {
				t.Errorf("%s %s: BENCHMARK.json says %s/%s, the program %s/lower=%v", what, g.Name, g.Unit, g.Better, d.unit, d.lower)
			}
		}
		sameSet(t, "BENCHMARK.json "+what, gotNames, names(want))
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var wlNames, progNames []string
	for _, w := range doc.Workloads {
		wlNames = append(wlNames, w.Name)
		if def := findWorkload(w.Name); def != nil && def.why != w.Why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and the program", w.Name)
		}
	}
	for _, w := range workloads {
		progNames = append(progNames, w.name)
	}
	sameSet(t, "BENCHMARK.json workloads", wlNames, progNames)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// A roster row in README.md starts with the name in backticks.
	var inReadme []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllSubmatch(readme, -1) {
		inReadme = append(inReadme, string(m[1]))
	}
	all := append(append(names(endToEnd), names(perLayer)...), progNames...)
	sameSet(t, "README.md table rows", inReadme, all)
}

// TestTracedConnPairing drives two pipelined connections at once against
// a traced server and checks that every harvested server span belongs to
// the train that harvested it: it saw exactly that train's bytes, and
// nests inside the client's send and receive.
func TestTracedConnPairing(t *testing.T) {
	keys := prefillKeys(1)[:4096]
	load := wirePipelined.generate(1, 2, time.Second)
	rig, err := wirePipelined.newRig(keys, load, true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, r := range rig.conns {
		c := r.(*pipeConn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for train := 0; train < 100; train++ {
				c.render()
				send := clock()
				if _, err := c.nc.Write(c.out); err != nil {
					t.Error(err)
					return
				}
				for j := range c.train {
					if _, _, err := c.reply(&c.train[j]); err != nil {
						t.Error(err)
						return
					}
				}
				recv := clock()
				s := c.tc.harvest()
				switch {
				case s.bytesIn != len(c.out):
					t.Errorf("conn %d train %d: server read %d bytes, the train had %d", i, train, s.bytesIn, len(c.out))
				case s.reads < 1 || s.writes < 1 || s.bytesOut == 0:
					t.Errorf("conn %d train %d: span %+v moved no bytes", i, train, s)
				case s.firstRead < send || s.firstRead > recv || s.lastWrite < s.firstRead || s.flushNs > s.lastWrite-s.firstRead:
					t.Errorf("conn %d train %d: span %+v does not nest in [%d, %d]", i, train, s, send, recv)
				}
			}
		}()
	}
	wg.Wait()
	out := &outcome{}
	rig.finish(out, keys)
	if out.violations != 0 {
		t.Errorf("%d violations: %v", out.violations, out.notes)
	}
}

// TestTraceListenerUntracedIsPlain: with tracing off the server must get
// the real connection, not a wrapper.
func TestTraceListenerUntracedIsPlain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := newTraceListener(l, false, 1)
	defer tl.Close()
	go func() {
		if c, err := net.Dial("tcp", l.Addr().String()); err == nil {
			c.Close()
		}
	}()
	nc, err := tl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, wrapped := nc.(*tracedConn); wrapped {
		t.Error("untraced listener returned a tracedConn")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", base, true, "no-worse"},
		{"lower-is-better rose 20%", []float64{120, 121, 119, 120, 120}, true, "worse"},
		{"lower-is-better fell 20%", []float64{80, 81, 79, 80, 80}, true, "better"},
		{"higher-is-better fell 20%", []float64{80, 81, 79, 80, 80}, false, "worse"},
		{"within bound", []float64{104, 105, 103, 104, 104}, true, "no-worse"},
		{"spread wider than bound", []float64{60, 140, 100, 80, 120}, true, "unresolved"},
	} {
		if got, _ := verdict(base, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareAndRepeatDocuments(t *testing.T) {
	mk := func(v float64) *fullReport {
		return &fullReport{Workloads: map[string]*report{"inproc-point": {Correct: true, Attempted: 1,
			Metrics: map[string]value{"ops_per_s": {Value: v, Unit: "1/s"}}}}}
	}
	dir := t.TempDir()
	write := func(name string, doc any) string {
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", repeatDoc{Runs: []*fullReport{mk(100), mk(101), mk(99), mk(100)}})
	b := write("b.json", mk(70))
	bj := write("BENCHMARK.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.07}}})
	var stdout, stderr bytes.Buffer
	if code := compareReports(a, b, bj, &stdout, &stderr); code != 1 {
		t.Errorf("a 30 %% throughput loss exited %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	sc := bufio.NewScanner(&stdout)
	rows := 0
	for sc.Scan() {
		rows++
	}
	if rows != 2 {
		t.Errorf("compare printed %d lines, want a header and one row", rows)
	}
	if code := compareReports(a, a, bj, &stdout, &stderr); code != 0 {
		t.Errorf("a report compared with itself exited %d", code)
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csds/internal/harness"
	"csds/internal/workload"
)

// TestListOutput smoke-tests -list: every registered combinator —
// including elastic — and at least one featured algorithm must appear.
func TestListOutput(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{
		"list/lazy",
		"sharded(shards,spec)",
		"striped(stripes,spec)",
		"readcache(capacity,spec)",
		"elastic(initial shards,spec)",
		"Options.KeySpan", // the corrected striped routing description
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestUnknownSpecError smoke-tests the error path: an unknown algorithm
// must exit nonzero with the actionable registry hint on stderr, and the
// hint's flag roster — generated from the FlagSet, not hand-written —
// must name every registered flag (the scan/cursor/batch flags used to
// be missing from this text).
func TestUnknownSpecError(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-alg", "list/nonexistent", "-dur", "10ms", "-runs", "1", "-threads", "1"}, &out, &errOut)
	if code == 0 {
		t.Fatal("unknown algorithm exited 0")
	}
	for _, want := range []string{"unknown algorithm", "csdsbench -list"} {
		if !strings.Contains(errOut.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
	fs, _ := newFlags(&errOut)
	for _, name := range flagRoster(fs) {
		if !strings.Contains(errOut.String(), name+" ") && !strings.HasSuffix(strings.TrimSpace(errOut.String()), name) {
			t.Fatalf("stderr flag roster missing %q:\n%s", name, errOut.String())
		}
	}
}

// TestListShowsEveryFlag asserts the -list flag section is complete:
// because the section is generated from the same FlagSet the parser
// uses, every registered flag — however it is added later — must appear.
func TestListShowsEveryFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d (stderr: %s)", code, errOut.String())
	}
	fs, _ := newFlags(&errOut)
	roster := flagRoster(fs)
	if len(roster) < 20 {
		t.Fatalf("flag roster suspiciously small: %v", roster)
	}
	for _, name := range roster {
		if !strings.Contains(out.String(), name+" ") {
			t.Fatalf("-list output missing flag %q:\n%s", name, out.String())
		}
	}
	// The scan, cursor, batch, networked, workload and cache flags in
	// particular — the ones a hand-written help text forgets first.
	for _, name := range []string{
		"-scan-frac", "-cursor-frac", "-batch-frac", "-batch-len", "-batch-dist", "-net",
		"-workload", "-auto-spec", "-cache-ttl", "-cache-admit",
	} {
		if !strings.Contains(out.String(), name+" ") {
			t.Fatalf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestListShowsEveryMix asserts the -list workload catalog is complete:
// it is generated from workload.Mixes(), so every registered named mix
// must appear with its description.
func TestListShowsEveryMix(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "workload mixes") {
		t.Fatalf("-list output missing the workload-mixes section:\n%s", out.String())
	}
	for _, m := range workload.Mixes() {
		if !strings.Contains(out.String(), m.Name+" ") {
			t.Fatalf("-list output missing workload mix %q:\n%s", m.Name, out.String())
		}
	}
}

// TestFlagRosterPinned pins the complete flag table verbatim. The older
// checks above only prove that whatever is registered shows up in -list
// — a flag deleted by mistake (or added with a colliding name) slipped
// straight through them. Any roster change must be deliberate: edit this
// list together with newFlags and the README flag table.
func TestFlagRosterPinned(t *testing.T) {
	want := []string{
		"-alg", "-auto-spec", "-batch-dist", "-batch-frac", "-batch-len",
		"-cache-admit", "-cache-ttl",
		"-cursor-frac", "-dur", "-ebr",
		"-elastic-grow", "-elastic-growwait", "-elastic-interval",
		"-elastic-max", "-elastic-min", "-elastic-shrink",
		"-elide", "-fault", "-list", "-net", "-page-dist", "-page-len",
		"-resize-at", "-runs", "-scan-dist", "-scan-frac", "-scan-len",
		"-size", "-threads", "-updates", "-workload", "-zipf",
	}
	var errOut strings.Builder
	fs, _ := newFlags(&errOut)
	got := flagRoster(fs) // lexically sorted by flag.VisitAll
	if len(got) != len(want) {
		t.Fatalf("flag roster drifted:\n got %v\nwant %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flag roster drifted at %d: got %q, want %q\nfull roster: %v", i, got[i], want[i], got)
		}
	}
}

// TestNetRejectsLocalFlags: flags that configure the in-process
// structure or harness must be refused in networked mode, not silently
// ignored (the server was configured elsewhere; pretending -ebr applies
// would make the report lie).
func TestNetRejectsLocalFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-ebr"},
		{"-elide", "3"},
		{"-resize-at", "10ms:4"},
		{"-elastic-grow", "100"},
		{"-cache-ttl", "50ms"},
		{"-cache-admit", "tinylfu"},
		{"-auto-spec"},
	} {
		args := append([]string{"-net", "127.0.0.1:1", "-dur", "10ms", "-runs", "1", "-threads", "1"}, extra...)
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("%v accepted in -net mode", extra)
		} else if !strings.Contains(errOut.String(), "-net") {
			t.Fatalf("%v: stderr does not explain the -net conflict:\n%s", extra, errOut.String())
		}
	}
}

// TestResizeAtRequiresResizable: scheduling resizes against a
// non-resizable spec must fail with the elastic hint.
func TestResizeAtRequiresResizable(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-alg", "list/lazy", "-resize-at", "10ms:4", "-dur", "10ms", "-runs", "1", "-threads", "1"}, &out, &errOut)
	if code == 0 {
		t.Fatal("resize schedule on a non-resizable spec exited 0")
	}
	if !strings.Contains(errOut.String(), "elastic(") {
		t.Fatalf("stderr missing the elastic(N,...) hint:\n%s", errOut.String())
	}
}

// TestBadResizeSyntax: malformed -resize-at values are rejected up front.
func TestBadResizeSyntax(t *testing.T) {
	for _, bad := range []string{"10ms", "x:4", "10ms:0", "10ms:-2"} {
		var out, errOut strings.Builder
		if code := run([]string{"-alg", "elastic(1,list/lazy)", "-resize-at", bad}, &out, &errOut); code == 0 {
			t.Fatalf("-resize-at %q accepted", bad)
		}
	}
}

// TestOrphanedPolicyFlags: policy bound/cadence flags without a trigger
// flag must be refused, not silently ignored.
func TestOrphanedPolicyFlags(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-alg", "elastic(1,list/lazy)", "-elastic-max", "32"}, &out, &errOut)
	if code == 0 {
		t.Fatal("-elastic-max without a trigger exited 0")
	}
	if !strings.Contains(errOut.String(), "-elastic-grow") {
		t.Fatalf("stderr missing the trigger-flag hint:\n%s", errOut.String())
	}
	// With a trigger present the same flag is honoured.
	out.Reset()
	errOut.Reset()
	code = run([]string{
		"-alg", "elastic(1,list/lazy)", "-threads", "2", "-dur", "30ms", "-runs", "1",
		"-elastic-max", "4", "-elastic-grow", "1",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("triggered policy run exited %d (stderr: %s)", code, errOut.String())
	}
}

// TestParseResizeSteps covers the schedule grammar directly.
func TestParseResizeSteps(t *testing.T) {
	steps, err := parseResizeSteps(" 100ms:8 , 300ms:2 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []harness.ResizeStep{{At: 100 * time.Millisecond, Width: 8}, {At: 300 * time.Millisecond, Width: 2}}
	if len(steps) != len(want) || steps[0] != want[0] || steps[1] != want[1] {
		t.Fatalf("parsed %v, want %v", steps, want)
	}
}

// TestScanFlagsSmoke runs a tiny scan-mix cell on each acceptance
// composite and checks the scan rows appear with nonzero throughput,
// distinct from the point-op row.
func TestScanFlagsSmoke(t *testing.T) {
	for _, alg := range []string{
		"sharded(4,list/lazy)",
		"striped(4,list/lazy)",
		"elastic(4,list/lazy)",
	} {
		var out, errOut strings.Builder
		code := run([]string{
			"-alg", alg, "-threads", "2", "-size", "128",
			"-dur", "40ms", "-runs", "1", "-scan-frac", "0.2", "-scan-len", "32",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: scan run exited %d (stderr: %s)", alg, code, errOut.String())
		}
		for _, want := range []string{"scan throughput", "scan latency", "keys/scan"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s: report missing %q:\n%s", alg, want, out.String())
			}
		}
	}
	// Without -scan-frac the scan rows stay out of the report.
	var out, errOut strings.Builder
	if code := run([]string{"-alg", "list/lazy", "-threads", "1", "-dur", "20ms", "-runs", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("plain run exited %d", code)
	}
	if strings.Contains(out.String(), "scan throughput") {
		t.Fatalf("scanless report shows scan rows:\n%s", out.String())
	}
}

// TestScanFlagValidation rejects malformed scan flags up front.
func TestScanFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "list/lazy", "-scan-frac", "1.5"},
		{"-alg", "list/lazy", "-scan-frac", "-0.1"},
		{"-alg", "list/lazy", "-scan-frac", "0.1", "-scan-dist", "pareto"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestCursorFlagsSmoke runs a tiny cursor-mix cell on each acceptance
// composite and checks the cursor rows appear, distinct from both the
// point-op and the one-shot-scan rows.
func TestCursorFlagsSmoke(t *testing.T) {
	for _, alg := range []string{
		"sharded(4,list/lazy)",
		"striped(4,list/lazy)",
		"elastic(4,list/lazy)",
	} {
		var out, errOut strings.Builder
		code := run([]string{
			"-alg", alg, "-threads", "2", "-size", "128",
			"-dur", "40ms", "-runs", "1", "-cursor-frac", "0.2",
			"-scan-len", "32", "-page-len", "8",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: cursor run exited %d (stderr: %s)", alg, code, errOut.String())
		}
		for _, want := range []string{"cursor throughput", "page latency", "keys/page", "paginated scans"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s: report missing %q:\n%s", alg, want, out.String())
			}
		}
		if strings.Contains(out.String(), "scan throughput") {
			t.Fatalf("%s: cursor-only mix leaked one-shot scan rows:\n%s", alg, out.String())
		}
	}
	// Without -cursor-frac the cursor rows stay out of the report.
	var out, errOut strings.Builder
	if code := run([]string{"-alg", "list/lazy", "-threads", "1", "-dur", "20ms", "-runs", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("plain run exited %d", code)
	}
	if strings.Contains(out.String(), "cursor throughput") {
		t.Fatalf("cursorless report shows cursor rows:\n%s", out.String())
	}
}

// TestCursorFlagValidation rejects malformed cursor flags up front.
func TestCursorFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "list/lazy", "-cursor-frac", "1.5"},
		{"-alg", "list/lazy", "-cursor-frac", "-0.1"},
		{"-alg", "list/lazy", "-cursor-frac", "0.1", "-page-len", "0"},
		{"-alg", "list/lazy", "-cursor-frac", "0.1", "-page-dist", "pareto"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestBatchFlagsSmoke runs a tiny batch-mix cell on each acceptance
// composite and checks the batch rows appear, distinct from the
// point-op rows; a contended single-shard cell must report a nonzero
// flat-combining fraction.
func TestBatchFlagsSmoke(t *testing.T) {
	for _, alg := range []string{
		"sharded(4,list/lazy)",
		"striped(4,list/lazy)",
		"elastic(4,list/lazy)",
	} {
		var out, errOut strings.Builder
		code := run([]string{
			"-alg", alg, "-threads", "2", "-size", "128",
			"-dur", "40ms", "-runs", "1", "-batch-frac", "0.3", "-batch-len", "8",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: batch run exited %d (stderr: %s)", alg, code, errOut.String())
		}
		for _, want := range []string{"batch throughput", "batch latency", "keys/batch", "flat combining", "allocs/op"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s: report missing %q:\n%s", alg, want, out.String())
			}
		}
	}
	// Without -batch-frac the batch rows stay out of the report.
	var out, errOut strings.Builder
	if code := run([]string{"-alg", "list/lazy", "-threads", "1", "-dur", "20ms", "-runs", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("plain run exited %d", code)
	}
	if strings.Contains(out.String(), "batch throughput") {
		t.Fatalf("batchless report shows batch rows:\n%s", out.String())
	}
}

// TestBatchFlagValidation rejects malformed batch flags up front.
func TestBatchFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "list/lazy", "-batch-frac", "1.5"},
		{"-alg", "list/lazy", "-batch-frac", "-0.1"},
		{"-alg", "list/lazy", "-batch-frac", "0.1", "-batch-len", "0"},
		{"-alg", "list/lazy", "-batch-frac", "0.1", "-batch-dist", "pareto"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestBenchRunSmoke runs one tiny real cell end to end, including a
// resize, and checks the human-readable report shape.
func TestBenchRunSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-alg", "elastic(1,list/lazy)", "-threads", "2", "-size", "64",
		"-dur", "40ms", "-runs", "1", "-resize-at", "15ms:4",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("smoke run exited %d (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"throughput", "lock wait frac", "elastic width"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestWorkloadFlagSmoke runs a named mix end to end: the report labels
// the workload, and a dynamic mix (flash) runs without error.
func TestWorkloadFlagSmoke(t *testing.T) {
	for _, mix := range []string{"ycsb-b", "flash"} {
		var out, errOut strings.Builder
		code := run([]string{
			"-workload", mix, "-alg", "list/lazy",
			"-threads", "2", "-size", "128", "-dur", "30ms", "-runs", "1",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: workload run exited %d (stderr: %s)", mix, code, errOut.String())
		}
		if !strings.Contains(out.String(), "workload           "+mix) {
			t.Fatalf("%s: report does not label the workload:\n%s", mix, out.String())
		}
	}
}

// TestWorkloadFlagOverride: an explicitly-set flag beats the mix field
// it names — ycsb-c is 100% reads, so forcing -updates 1 onto it must
// show 100% updates in the report.
func TestWorkloadFlagOverride(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-workload", "ycsb-c", "-updates", "1", "-alg", "list/lazy",
		"-threads", "1", "-size", "64", "-dur", "20ms", "-runs", "1",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("override run exited %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "/ 100%") {
		t.Fatalf("-updates 1 did not override the ycsb-c mix:\n%s", out.String())
	}
}

// TestWorkloadFlagRejectsUnknown: an unknown mix or modifier fails up
// front with the vocabulary in the message.
func TestWorkloadFlagRejectsUnknown(t *testing.T) {
	for _, wl := range []string{"nosuch-mix", "ycsb-a:nosuch=1", "ycsb-a:updates=2"} {
		var out, errOut strings.Builder
		if code := run([]string{"-workload", wl}, &out, &errOut); code == 0 {
			t.Fatalf("-workload %q accepted", wl)
		} else if !strings.Contains(errOut.String(), "-workload") {
			t.Fatalf("-workload %q: stderr does not point at the flag:\n%s", wl, errOut.String())
		}
	}
}

// TestWorkloadCSVColumn: a named mix's update ratio and skew reach the
// run — the report's identity lines carry the -workload spec verbatim
// and the mix's updates/zipf — and an unset -workload prints no
// workload line.
func TestWorkloadCSVColumn(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-workload", "ycsb-b", "-alg", "list/lazy",
		"-threads", "1", "-size", "64", "-dur", "20ms", "-runs", "1",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("workload run exited %d (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{
		"workload           ycsb-b\n",
		"threads/size/upd   1 / 64 / 5%  (zipf 0.99)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("ycsb-b identity line %q missing:\n%s", want, out.String())
		}
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-alg", "list/lazy", "-threads", "1", "-size", "64", "-dur", "20ms", "-runs", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("plain run exited %d", code)
	}
	if strings.Contains(out.String(), "workload  ") {
		t.Fatalf("unset -workload still prints a workload line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "threads/size/upd   1 / 64 / 10%  (zipf 0)\n") {
		t.Fatalf("flag-default identity line missing:\n%s", out.String())
	}
}

// TestAutoSpecSmoke: -auto-spec swaps the derived composite in for the
// leaf, reports the derivation, and records the composite on the
// algorithm line (the cell identity must describe what was measured).
func TestAutoSpecSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-workload", "ycsb-b", "-auto-spec", "-alg", "list/lazy",
		"-threads", "2", "-size", "2048", "-dur", "30ms", "-runs", "1",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("auto-spec run exited %d (stderr: %s)", code, errOut.String())
	}
	for _, want := range []string{"auto-tuned", "cache    "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("auto-spec report missing %q:\n%s", want, out.String())
		}
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(first, "algorithm          readcache(") || !strings.Contains(first, "sharded(") {
		t.Fatalf("algorithm line does not carry the derived spec: %q", first)
	}
}

// TestAutoSpecRejectsComposite: -auto-spec derives the composite
// itself, so handing it one is an error with the csdsmodel hint.
func TestAutoSpecRejectsComposite(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-auto-spec", "-alg", "sharded(8,list/lazy)", "-threads", "2"}, &out, &errOut); code == 0 {
		t.Fatal("-auto-spec accepted a composite -alg")
	}
	if !strings.Contains(errOut.String(), "csdsmodel -auto-spec") {
		t.Fatalf("stderr missing the csdsmodel hint:\n%s", errOut.String())
	}
}

// TestCacheFlagsSmoke: TTL + admission flags drive a readcache cell and
// the cache stats line reports hits and fills.
func TestCacheFlagsSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-alg", "readcache(128,list/lazy)", "-threads", "2", "-size", "256",
		"-zipf", "0.9", "-cache-ttl", "5ms", "-cache-admit", "tinylfu",
		"-dur", "40ms", "-runs", "1",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("cache run exited %d (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "hit frac") || !strings.Contains(out.String(), "expiries") {
		t.Fatalf("report missing the cache stats line:\n%s", out.String())
	}
}

// TestCacheFlagValidation rejects malformed cache flags up front.
func TestCacheFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "readcache(64,list/lazy)", "-cache-admit", "lru"},
		{"-alg", "readcache(64,list/lazy)", "-cache-ttl", "-5ms"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestDocsPinnedToLiveRoster holds the operator-facing docs to the live
// tool surface: the README and DESIGN sections PR 9 added must exist,
// every catalog mix name must appear in the README's workload table,
// and every csdsbench flag the docs mention must exist in the real flag
// set — renaming or dropping a flag without updating the manual fails
// here, not in a user's terminal.
func TestDocsPinnedToLiveRoster(t *testing.T) {
	readDoc := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return string(data)
	}
	readme := readDoc("README.md")
	design := readDoc("DESIGN.md")

	for doc, heading := range map[string]string{
		"README.md": "## Production workloads & auto-tuning",
		"DESIGN.md": "## §7 Workloads & the tuning loop",
	} {
		body := readme
		if doc == "DESIGN.md" {
			body = design
		}
		if !strings.Contains(body, heading) {
			t.Errorf("%s lacks the %q section", doc, heading)
		}
	}

	for _, mix := range workload.Names() {
		if !strings.Contains(readme, "`"+mix+"`") {
			t.Errorf("README.md workload catalog lacks mix `%s`", mix)
		}
	}

	var errOut strings.Builder
	fs, _ := newFlags(&errOut)
	live := map[string]bool{
		// Not csdsbench flags, but legitimately shared lines with it in
		// the README: the examples' smoke flag.
		"-short": true,
	}
	for _, f := range flagRoster(fs) {
		live[f] = true
	}
	for _, doc := range []struct{ name, body string }{
		{"README.md", readme}, {"DESIGN.md", design},
	} {
		for ln, line := range strings.Split(doc.body, "\n") {
			if !strings.Contains(line, "csdsbench") {
				continue
			}
			for _, tok := range strings.Fields(line) {
				tok = strings.Trim(tok, "`'\"();,.:*")
				if len(tok) < 2 || tok[0] != '-' || tok[1] == '-' {
					continue
				}
				if !live[tok] {
					t.Errorf("%s:%d mentions csdsbench flag %q, not in the live roster", doc.name, ln+1, tok)
				}
			}
		}
	}
}

package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csds/internal/harness"
	"csds/internal/tuner"
)

// TestPaperExamplesDefault: no flags still reproduces the §6 numbers.
func TestPaperExamplesDefault(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"§6.1", "§6.2", "§6.3", "§6.4", "[0.0058]", "[0.16]"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("paper-examples output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestAutoSpecDerivesGridCell: the -auto-spec mode prints the same spec
// the tuner derives for the -validate roster's auto-tuned cell,
// machine-readably on the first line, with a note per parameter and a
// csdsbench recipe.
func TestAutoSpecDerivesGridCell(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-auto-spec", "-workload", "ycsb-b", "-leaf", "list/lazy", "-threads", "4", "-size", "2048"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	lines := strings.Split(out.String(), "\n")
	if want := "spec: readcache(1024,sharded(32,list/lazy))"; lines[0] != want {
		t.Fatalf("first line %q, want %q (the pinned derivation, see tuner.TestDeriveListGridCell)", lines[0], want)
	}
	for _, want := range []string{"width 32", "cache 1024 slots", "csdsbench -workload ycsb-b -auto-spec", "-cache-admit tinylfu"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("auto-spec output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestAutoSpecRejectsBadInputs: unknown mixes and composite leaves fail
// with a diagnostic, not a zero exit.
func TestAutoSpecRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-auto-spec", "-workload", "nosuch-mix", "-threads", "4"},
		{"-auto-spec", "-leaf", "sharded(8,list/lazy)", "-threads", "4"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code == 0 {
			t.Fatalf("%v exited 0; stderr %q", args, errb.String())
		}
		if errb.Len() == 0 {
			t.Fatalf("%v failed silently", args)
		}
	}
}

// TestValidateReportsPerCellError substitutes the measuring function
// with one whose "measurements" are a known multiple of the predictions
// — computed from the run it is handed by its own mapping, so a roster
// cell whose identity and measured config disagree shows up as error:
// the report must carry every roster cell, the fitted factor and a
// near-zero MAE, without spending the ~10 s the real roster takes. A
// cell that fails to measure is an error, not a silently shorter report.
func TestValidateReportsPerCellError(t *testing.T) {
	fake := func(cfg harness.Config) (harness.Result, error) {
		if cfg.Threads != 4 || cfg.Workload.Size != 2048 || cfg.Duration != 300*time.Millisecond || cfg.Runs != 2 {
			t.Errorf("%s measured off the fixed budget: %+v", cfg.Algorithm, cfg)
		}
		wl := cfg.Workload
		p, err := tuner.PredictCell(tuner.Cell{
			Alg: cfg.Algorithm, Threads: cfg.Threads, Size: wl.Size, Updates: wl.UpdateRatio, Zipf: wl.ZipfS,
			ScanFrac: wl.ScanRatio, CursorFrac: wl.CursorRatio, BatchFrac: wl.BatchRatio,
		}, tuner.NeutralMachine(cfg.Threads))
		return harness.Result{Throughput: 7 * p}, err
	}
	var out, errb strings.Builder
	if code := runValidate(fake, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"global scale factor 7 ",
		"15 cells validated, mean |error| 0.0%",
		"  list/lazy paper:updates=0.1:scan-frac=0.05:cursor-frac=0.05 ",
		"  sharded(32,list/lazy) paper:updates=0.1:scan-frac=0.05:cursor-frac=0.05 ebr ",
		"  sharded(1,list/lazy) paper:updates=0.1:batch-frac=0.25:zipf=0.9 ",
		"  sharded(32,list/lazy) ycsb-b ",
		"  readcache(1024,sharded(32,list/lazy)) ycsb-b ",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("validate output lacks %q:\n%s", want, got)
		}
	}

	errb.Reset()
	broken := func(harness.Config) (harness.Result, error) { return harness.Result{}, errors.New("no such structure") }
	if code := runValidate(broken, &out, &errb); code == 0 || !strings.Contains(errb.String(), "no such structure") {
		t.Fatalf("failed measurement: exit %d, stderr %q", code, errb.String())
	}
}

// TestDocsMentionLiveFlags: every csdsmodel flag the README or DESIGN
// mention must exist in the live flag set (the roster is recovered from
// the -h usage text, so this survives flag additions without a mirror
// list).
func TestDocsMentionLiveFlags(t *testing.T) {
	var out, usage strings.Builder
	if code := run([]string{"-h"}, &out, &usage); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	live := map[string]bool{}
	for _, line := range strings.Split(usage.String(), "\n") {
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) > 0 && strings.HasPrefix(f[0], "-") {
			live[f[0]] = true
		}
	}
	if len(live) < 5 {
		t.Fatalf("usage text yielded only %d flags:\n%s", len(live), usage.String())
	}
	for _, name := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ln, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, "csdsmodel") {
				continue
			}
			for _, tok := range strings.Fields(line) {
				tok = strings.Trim(tok, "`'\"();,.:*")
				if len(tok) < 2 || tok[0] != '-' || tok[1] == '-' {
					continue
				}
				if !live[tok] {
					t.Errorf("%s:%d mentions csdsmodel flag %q, not in the live flag set", name, ln+1, tok)
				}
			}
		}
	}
}

// TestScenarioModeStillWorks: the original flag-driven Section 6
// calculator is unchanged by the tuner growth.
func TestScenarioModeStillWorks(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-threads", "40", "-size", "512", "-updates", "0.2", "-kind", "list", "-zipf", "0.8"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"p_conflict (Eq.3+5)", "p_conflict zipf (Eq.6)", "p_lock TSX (Eq.8)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("scenario output lacks %q:\n%s", want, out.String())
		}
	}
}

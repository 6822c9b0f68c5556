package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// elapsedRE matches the wall-clock figure in the summary line ("explored N
// design points in 12ms (...)"), the only nondeterministic part of stdout.
var elapsedRE = regexp.MustCompile(`design points in [^(]+\(`)

// golden runs the command in-process, scrubs the elapsed time, and compares
// stdout (and, when csvName is non-empty, the CSV it wrote) against pinned
// golden files — the regression lock on flag plumbing and column formats.
func golden(t *testing.T, name, csvName string, args []string) {
	t.Helper()
	if csvName != "" {
		csvPath := filepath.Join(t.TempDir(), "points.csv")
		args = append(args, "-csv", csvPath)
		defer func() {
			data, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, csvName, data)
		}()
	}
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	stdout := elapsedRE.ReplaceAll(out.Bytes(), []byte("design points in ELAPSED ("))
	if csvName != "" {
		// The trailing "wrote N points to <tempdir>" line embeds the temp
		// path; strip it before comparing.
		if j := bytes.LastIndex(stdout, []byte("wrote ")); j >= 0 {
			stdout = stdout[:j]
		}
	}
	compareGolden(t, name, stdout)
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/vtrain-dse -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// sweepArgs is a sweep small enough for a unit test but wide enough to
// exercise the ranking table, the cheapest-plan line, and the CSV dump.
func sweepArgs(extra ...string) []string {
	args := []string{
		"-model", "megatron-3.6b", "-batch", "64", "-tokens", "20e9",
		"-nodes", "2", "-top", "5", "-progress=false",
	}
	return append(args, extra...)
}

// TestGoldenSweep pins the default plan-space sweep output: cache summary
// lines, the ranked plan table, the cheapest-plan line, and the CSV.
func TestGoldenSweep(t *testing.T) {
	golden(t, "sweep.golden", "sweep.csv.golden", sweepArgs())
}

// TestGoldenSweepContended pins the -contention output and holds the two
// goldens to the knob's contract: the contended sweep explores the same
// points through the same number of lowerings, and no plan gets faster.
func TestGoldenSweepContended(t *testing.T) {
	golden(t, "sweep-contended.golden", "", sweepArgs("-contention"))

	def, err := os.ReadFile(filepath.Join("testdata", "sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cont, err := os.ReadFile(filepath.Join("testdata", "sweep-contended.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defHead, contHead := summaryLine(string(def)), summaryLine(string(cont))
	if defHead == "" || contHead == "" {
		t.Fatal("no summary lines parsed from goldens")
	}
	if defHead != contHead {
		t.Errorf("contention changed the exploration itself, not just timing:\n ideal: %s\n  cont: %s", defHead, contHead)
	}
}

// summaryLine returns the "explored N design points ..." header with the
// elapsed scrub already applied — point count, lowerings, and hit rate.
func summaryLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "explored ") {
			return line
		}
	}
	return ""
}

// TestBadFlags pins the seam's error path: unknown flags surface as an
// error from run, not a process exit.
func TestBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown flag did not error")
	}
}

// TestCSVWriteErrorSurfaces writes a small CSV to /dev/full: every write
// fails with ENOSPC, but this CSV is smaller than the writer's buffer, so
// the failure shows only at Flush. run must return it, not report success.
func TestCSVWriteErrorSurfaces(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	args := []string{"-model", "megatron-3.6b", "-batch", "64", "-tokens", "20e9",
		"-nodes", "1", "-max-gpus", "2", "-progress=false", "-csv", "/dev/full"}
	if err := run(args, io.Discard, io.Discard); err == nil {
		t.Fatal("writing the CSV to a full device did not error")
	}
}

// TestTokensOutOfRangeFails pins the -tokens bound: a negative, NaN, or
// ≥ 2^64 budget is an error before any sweep runs, never a wrapped budget
// that prints nonsense days and dollars.
func TestTokensOutOfRangeFails(t *testing.T) {
	for _, tokens := range []string{"-1e9", "1e30", "NaN"} {
		args := []string{"-model", "megatron-3.6b", "-batch", "64", "-nodes", "8",
			"-tokens", tokens, "-top", "2", "-progress=false"}
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil || !strings.Contains(err.Error(), "-tokens") {
			t.Errorf("-tokens %s: run = %v, want a -tokens range error; stdout:\n%s", tokens, err, out.Bytes())
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vtrain/internal/clusterdse"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// golden runs the command in-process and compares stdout (and, when
// csvName is non-empty, the CSV it wrote) against pinned golden files —
// the regression lock on flag plumbing and column formats.
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
	stdout := out.Bytes()
	if csvName != "" {
		// The trailing "wrote N points to <tempdir>" line embeds the
		// temp path; strip it before comparing.
		if j := bytes.LastIndex(stdout, []byte("\nwrote ")); j >= 0 {
			stdout = stdout[:j+1]
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
		t.Fatalf("%v (run `go test ./cmd/vtrain-clusterdse -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// sweepArgs is a sweep small enough for a unit test but wide enough to
// cover two GPU generations, the deadline path, and the CSV dump.
func sweepArgs(extra ...string) []string {
	args := []string{
		"-model", "megatron-3.6b", "-batch", "64", "-tokens", "20e9",
		"-nodes", "1,2", "-offerings", "a100-sxm-80gb,h100-sxm-80gb",
		"-deadline", "30", "-top", "5", "-progress=false",
	}
	return append(args, extra...)
}

// TestGoldenResilient pins the default (failure-adjusted) output: the
// goodput column, effective days/dollars, and the CSV's resilience fields.
func TestGoldenResilient(t *testing.T) {
	golden(t, "resilient.golden", "resilient.csv.golden", sweepArgs())
}

// TestGoldenNoResilience pins the -no-resilience output: the pre-PR
// columns, ideal economics, and empty resilience CSV fields.
func TestGoldenNoResilience(t *testing.T) {
	golden(t, "no-resilience.golden", "no-resilience.csv.golden", sweepArgs("-no-resilience"))
}

// TestGoldenOverrides pins the -mtbf/-ckpt-bw flag plumbing: a harsher
// failure environment must lower every goodput below the default run's.
func TestGoldenOverrides(t *testing.T) {
	golden(t, "overrides.golden", "", sweepArgs("-mtbf", "2000", "-ckpt-bw", "1"))

	def, err := os.ReadFile(filepath.Join("testdata", "resilient.golden"))
	if err != nil {
		t.Fatal(err)
	}
	hard, err := os.ReadFile(filepath.Join("testdata", "overrides.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defGood, hardGood := goodputColumn(t, string(def)), goodputColumn(t, string(hard))
	if len(defGood) == 0 || len(hardGood) == 0 {
		t.Fatal("no goodput columns parsed from goldens")
	}
	max := func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if max(hardGood) >= max(defGood) {
		t.Errorf("override run best goodput %.2f not below default %.2f", max(hardGood), max(defGood))
	}
}

// goodputColumn extracts the good% column from ranked-table lines.
func goodputColumn(t *testing.T, out string) []float64 {
	t.Helper()
	var vals []float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		// offering nodes GPUs plan iter util good eff-days eff-$
		if len(f) == 9 && (strings.HasPrefix(f[0], "a100") || strings.HasPrefix(f[0], "h100") || strings.HasPrefix(f[0], "v100")) {
			g, err := strconv.ParseFloat(f[6], 64)
			if err != nil {
				continue
			}
			vals = append(vals, g)
		}
	}
	return vals
}

// TestGPUCountOverflowFails: 2^61+1 nodes of 8 GPUs wrap the GPU count to
// 8, so the command must fail instead of ranking a phantom cluster.
func TestGPUCountOverflowFails(t *testing.T) {
	args := []string{
		"-model", "megatron-3.6b", "-batch", "8", "-tokens", "1e9",
		"-nodes", "2305843009213693953", "-offerings", "a100-sxm-80gb", "-progress=false",
	}
	var out bytes.Buffer
	err := run(args, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("run(%v) = %v, want a GPU-count overflow error; stdout:\n%s", args, err, out.Bytes())
	}
}

// TestTokensOutOfRangeFails pins the -tokens bound: a negative, NaN, or
// ≥ 2^64 budget is an error before any sweep runs, never a wrapped budget
// that ranks clusters by nonsense days and dollars.
func TestTokensOutOfRangeFails(t *testing.T) {
	for _, tokens := range []string{"-1e9", "1e30", "NaN"} {
		args := []string{"-model", "megatron-3.6b", "-batch", "64", "-tokens", tokens,
			"-nodes", "1", "-offerings", "a100-sxm-80gb", "-top", "1", "-progress=false"}
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil || !strings.Contains(err.Error(), "-tokens") {
			t.Errorf("-tokens %s: run = %v, want a -tokens range error; stdout:\n%s", tokens, err, out.Bytes())
		}
	}
}

// TestCSVWriteErrorClosesFile writes a CSV larger than the csv writer's
// 4 KiB buffer to /dev/full, so a row Write fails before Flush: dumpCSV
// must return the error and still close the file.
func TestCSVWriteErrorClosesFile(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(fds)
	}
	points := make([]clusterdse.Point, 500)
	before := openFDs()
	if err := dumpCSV("/dev/full", points, strings.Repeat("m", 64)); err == nil {
		t.Fatal("writing the CSV to a full device did not error")
	}
	if after := openFDs(); after != before {
		t.Errorf("dumpCSV leaked a descriptor on a write error: %d open before, %d after", before, after)
	}
}

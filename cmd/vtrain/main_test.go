package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vtrain/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// descPath points at the shared example descfiles so the CLI goldens and
// the quickstart documentation exercise the same inputs.
func descPath(name string) string {
	return filepath.Join("..", "..", "examples", "descfiles", name)
}

func golden(t *testing.T, name string, args []string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	compareGolden(t, name, out.Bytes())
	return out.Bytes()
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
		t.Fatalf("%v (run `go test ./cmd/vtrain -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenHuman pins the human-readable report for a resilient H100
// run: every printed line (plan, iteration time, memory, end-to-end cost,
// failure-adjusted cost) is format-locked.
func TestGoldenHuman(t *testing.T) {
	golden(t, "human.golden", []string{"-f", descPath("megatron-18b-h100-resilience.json")})
}

// TestGoldenHumanIdeal covers the resilience-disabled path: no "with
// failures" line, and the custom (non-preset) model name.
func TestGoldenHumanIdeal(t *testing.T) {
	golden(t, "human-ideal.golden", []string{"-f", descPath("tiny-custom-ideal.json")})
}

// TestGoldenJSON pins the machine-readable report. The same bytes are
// re-checked against the HTTP server in TestCLIServerEquivalence.
func TestGoldenJSON(t *testing.T) {
	golden(t, "json.golden", []string{"-json", "-f", descPath("megatron-18b-h100-resilience.json")})
}

// TestCLIServerEquivalence is the thin-client lock: `vtrain -json` and a
// POST of the same descfile to /v1/simulate must produce byte-identical
// output. The CLI is not a reimplementation of the server — it is the
// server's engine run in-process — and this test keeps it that way.
func TestCLIServerEquivalence(t *testing.T) {
	for _, name := range []string{
		"megatron-18b-h100-resilience.json",
		"tiny-custom-ideal.json",
	} {
		t.Run(name, func(t *testing.T) {
			var cli bytes.Buffer
			if err := run([]string{"-json", "-f", descPath(name)}, &cli, io.Discard); err != nil {
				t.Fatalf("run: %v", err)
			}

			body, err := os.ReadFile(descPath(name))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.New(server.Config{}).Handler())
			defer ts.Close()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/simulate status %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, cli.Bytes()) {
				t.Errorf("CLI and server output diverged for %s.\n--- vtrain -json ---\n%s\n--- /v1/simulate ---\n%s",
					name, cli.Bytes(), got)
			}
		})
	}
}

// TestMissingFile keeps the error path an error: no descfile, no silent
// default.
func TestMissingFile(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Fatal("run with no -f succeeded")
	}
}

// TestOverflowingEconomicsFails keeps an unencodable projection an error in
// both output modes: a price so large that the cost is +Inf must exit
// non-zero, not print "$NaNM" or fail halfway through the JSON.
func TestOverflowingEconomicsFails(t *testing.T) {
	desc, err := os.ReadFile(descPath("megatron-18b-h100-resilience.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "overflow.json")
	body := bytes.Replace(desc, []byte(`"cluster":{`), []byte(`"cluster":{"dollars_per_gpu_hour": 1e308,`), 1)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-f", path}, {"-f", path, "-json"}} {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want an overflow error; output:\n%s", args, out.Bytes())
		}
	}
}

// TestPlanPastTaskIDLimitFails: a plan whose graph could number more tasks
// than int32 holds makes vtrain fail with an error instead of panicking.
func TestPlanPastTaskIDLimitFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.json")
	body := `{"model":{"preset":"megatron-39.1b"},"cluster":{"nodes":1},
		"plan":{"tensor":8,"data":1,"pipeline":1,"micro_batch":1,"global_batch":1099511627776},
		"total_tokens":1000000000}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-f", path}, {"-f", path, "-json"}} {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err == nil || !strings.Contains(err.Error(), "task id limit") {
			t.Errorf("run(%v) = %v, want the task id limit error; output:\n%s", args, err, out.Bytes())
		}
	}
}

// TestOverflowingPlanFails: descriptions whose token or parameter count
// overflows 64 bits make vtrain exit non-zero instead of printing a report
// computed from wrapped integers.
func TestOverflowingPlanFails(t *testing.T) {
	for name, body := range map[string]string{
		"tokens": `{"model":{"preset":"megatron-3.6b"},"cluster":{"nodes":1,"resilience":{"disabled":true}},
			"plan":{"tensor":8,"data":1,"pipeline":1,"micro_batch":1125899906842624,"global_batch":1152921504606846976},
			"total_tokens":1000000000000}`,
		"params": `{"model":{"name":"huge","hidden":4611686018427387904,"layers":1,"seq_len":4611686018427387904,"heads":1,"vocab":1},
			"cluster":{"nodes":1},"plan":{"tensor":1,"data":1,"pipeline":1,"micro_batch":1,"global_batch":1},"total_tokens":1000}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"-f", path}, {"-f", path, "-json"}} {
			var out bytes.Buffer
			if err := run(args, &out, io.Discard); err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("%s: run(%v) = %v, want an overflow error; output:\n%s", name, args, err, out.Bytes())
			}
		}
	}
}

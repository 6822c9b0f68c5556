package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name         string
		base, next   []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"faster on every pair", steady, scale(steady, 0.8), false, 0.1, improved},
		{"more throughput on every pair", steady, scale(steady, 1.2), true, 0.1, improved},
		{"same runs", steady, steady, false, 0.1, noWorse},
		{"slower within the bound", steady, scale(steady, 1.05), false, 0.1, noWorse},
		{"slower beyond the bound", steady, scale(steady, 1.2), false, 0.1, regressed},
		{"less throughput beyond the bound", steady, scale(steady, 0.8), true, 0.1, regressed},
		// Quartiles 60 and 140: a 40% spread hides a 10% bound either way.
		{"noise wider than the bound", []float64{60, 140, 60, 140, 100, 60, 140, 100}, []float64{140, 60, 140, 60, 100, 140, 60, 110}, false, 0.1, unresolved},
		// Every new run beats every base run, but by less than the spread:
		// not a gain, yet certainly no worse.
		{"noisy but dominated", []float64{100, 200, 100, 200, 150}, []float64{99, 98, 97, 96, 95}, false, 0.1, noWorse},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.base, c.next, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// A gain needs nine pairs in ten: eight wins of ten is not one, however
	// large the medians' gap.
	base := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	next := []float64{5, 5, 5, 5, 5, 5, 5, 5, 11, 11}
	if got, wins, pairs := judge(base, next, false, 0.1); got == improved || wins != 8 || pairs != 10 {
		t.Errorf("8 of 10 pairs: verdict %q with %d/%d pairs, want no gain claimed", got, wins, pairs)
	}
}

func TestAgreement(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	if _, ok := agreement(a, []float64{101, 100, 100, 99, 101}, 0.1); !ok {
		t.Error("two steady sets of one commit disagree")
	}
	if _, ok := agreement(a, []float64{130, 131, 129, 130, 132}, 0.1); ok {
		t.Error("medians 30% apart agree under a 10% bound")
	}
	if _, ok := agreement(a[:4], a[:4], 0.1); ok {
		t.Error("four runs a side agree; at least five are required")
	}
}

func TestReportFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("BENCHMARK.json", `{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[]}`)
	line := func(seed int, v string) string {
		return `{"workload":"w","seed":` + string(rune('0'+seed)) + `,"trace":0,"env":{"canary_ms":8},"result":{"correct":true,"metrics":{"op_p50_ms":{"value":` + v + `,"unit":"ms"}}}}` + "\n"
	}
	var base, slow strings.Builder
	for s := 1; s <= 5; s++ {
		base.WriteString(line(s, "100"))
		slow.WriteString(line(s, "130"))
	}
	b, n := write("base.jsonl", base.String()), write("new.jsonl", slow.String())
	var out bytes.Buffer
	if code := run([]string{"-bench", spec, b, n}, &out, &out); code != 1 || !strings.Contains(out.String(), regressed) {
		t.Errorf("exit %d, output:\n%s\nwant a regression and exit 1", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-bench", spec, "-agree", b, b}, &out, &out); code != 0 || !strings.Contains(out.String(), "agree") {
		t.Errorf("exit %d, output:\n%s\nwant agreement and exit 0", code, out.String())
	}
}

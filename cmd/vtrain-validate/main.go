// Command vtrain-validate regenerates the paper's accuracy experiments:
//
//	-fig1    Fig. 1  — GPT-3 175B training days vs. GPU utilization
//	-single  Fig. 9a — 1,440-point single-node validation (MAPE, R²)
//	-multi   Fig. 9b — 116-point multi-node validation (MAPE, R²)
//
// With -csv, the scatter points (measured, predicted) are written out for
// plotting.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"vtrain/internal/cost"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/testbed"
	"vtrain/internal/validate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vtrain-validate: ")

	fig1 := flag.Bool("fig1", false, "print Fig. 1: training time vs. utilization")
	single := flag.Bool("single", false, "run the Fig. 9a single-node campaign")
	multi := flag.Bool("multi", false, "run the Fig. 9b multi-node campaign")
	seed := flag.Uint64("seed", 42, "testbed noise seed")
	csvPath := flag.String("csv", "", "write (measured, predicted) pairs to this CSV file")
	flag.Parse()

	if !*fig1 && !*single && !*multi {
		*fig1, *single, *multi = true, true, true
	}

	if *fig1 {
		printFig1()
	}
	if *single {
		runCampaign("Fig. 9a single-node (8 GPUs)", hw.PaperCluster(1), validate.SingleNodeCases(), *seed, *csvPath, "8.37%, R²=0.9896")
	}
	if *multi {
		runCampaign("Fig. 9b multi-node (512 GPUs)", hw.PaperCluster(64), validate.MultiNodeCases(), *seed, *csvPath, "14.73%, R²=0.9887")
	}
}

func printFig1() {
	m := model.GPT3175B()
	g := hw.A100SXM80GB()
	fmt.Println("Fig. 1 — GPT-3 175B on 1,024 A100s, 300B tokens:")
	fmt.Printf("%12s %15s\n", "util (%)", "training (days)")
	for u := 30; u <= 70; u += 5 {
		days := cost.TimeForUtilization(m, 300e9, 1024, float64(u)/100, g)
		fmt.Printf("%12d %15.1f\n", u, days)
	}
	fmt.Println()
}

func runCampaign(name string, cluster hw.Cluster, cases []validate.Case, seed uint64, csvPath, paper string) {
	start := time.Now()
	res, err := validate.Run(cluster, cases, testbed.DefaultConfig(), seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d points in %v\n", name, len(cases), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  MAPE = %.2f %%   R² = %.4f   (paper: %s)\n\n", res.MAPE, res.R2, paper)

	if csvPath != "" {
		path := csvPath + "." + sanitize(name) + ".csv"
		if err := dump(path, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func dump(path string, res validate.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A full disk or closed pipe can surface only at Flush or Close, so
	// both errors are the function's.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"measured_s", "predicted_s", "model", "plan"}); err != nil {
		return err
	}
	for i := range res.Measured {
		err := w.Write([]string{
			strconv.FormatFloat(res.Measured[i], 'f', 6, 64),
			strconv.FormatFloat(res.Predicted[i], 'f', 6, 64),
			res.Cases[i].Model.Name,
			res.Cases[i].Plan.String(),
		})
		if err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

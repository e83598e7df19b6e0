// Command rhythm-benchgate compares a rhythm-bench -json run against a
// committed baseline and fails unless every metric is BIT-identical
// (math.Float64bits), ignoring only the host-dependent wall_clock_secs
// and host_cores records. A metric present in one file and not the
// other also fails.
//
// The simulator reports virtual device time, so its numbers are
// machine-independent and reproduce exactly on any host at any
// -sim-parallelism: any drift, however small, is a modeling, kernel or
// scheduling change, so no tolerance applies. A change that means to
// move a number regenerates the baseline in the same PR.
//
// Usage:
//
//	rhythm-bench -json gated > current.json
//	rhythm-benchgate -baseline BENCH_baseline.json -current current.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

type record struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline rhythm-bench -json output")
		currentPath  = flag.String("current", "", "current rhythm-bench -json output (required)")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "rhythm-benchgate: -current is required")
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhythm-benchgate:", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rhythm-benchgate:", err)
		os.Exit(2)
	}
	keys := map[string]bool{}
	for k := range baseline {
		keys[k] = true
	}
	for k := range current {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	if len(sorted) == 0 {
		fmt.Fprintf(os.Stderr, "rhythm-benchgate: no comparable metrics in %s / %s\n", *baselinePath, *currentPath)
		os.Exit(2)
	}

	failed := 0
	for _, k := range sorted {
		base, bok := baseline[k]
		cur, cok := current[k]
		switch {
		case !bok:
			fmt.Printf("FAIL %-40s only in %s\n", k, *currentPath)
			failed++
		case !cok:
			fmt.Printf("FAIL %-40s only in %s\n", k, *baselinePath)
			failed++
		case math.Float64bits(base) != math.Float64bits(cur):
			fmt.Printf("FAIL %-40s %v != %v (bits %016x vs %016x)\n",
				k, base, cur, math.Float64bits(base), math.Float64bits(cur))
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("rhythm-benchgate: %d of %d metrics differ from %s\n", failed, len(sorted), *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("rhythm-benchgate: %d metrics bit-identical\n", len(sorted))
}

// load reads newline-delimited rhythm-bench records, keyed
// experiment-qualified so the same row name in two experiments can't
// collide. It drops the records that carry host wall-clock or hardware
// information rather than a simulated value.
func load(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if r.Metric == "wall_clock_secs" || r.Metric == "host_cores" {
			continue
		}
		out[r.Experiment+"::"+r.Metric] = r.Value
	}
	return out, sc.Err()
}

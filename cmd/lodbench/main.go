// Command lodbench regenerates the paper's tables and figures
// (experiments E1–E16 of DESIGN.md) and prints them to stdout:
//
//	lodbench            # run every experiment
//	lodbench -exp E7    # run one experiment
//	lodbench -list      # list experiment IDs and titles
//
// It measures nothing about the serving cluster; the benchmark of
// record is BENCHMARK.json + benchmark/ (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lodbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lodbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment ID to run (E1..E16); empty runs all")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		reg := experiments.Registry()
		for _, id := range experiments.IDs() {
			res, err := reg[id]()
			if err != nil {
				return err
			}
			fmt.Printf("%-4s %s\n", res.ID, res.Title)
		}
		return nil
	}

	if *exp != "" {
		runner, ok := experiments.Registry()[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", *exp, experiments.IDs())
		}
		res, err := runner()
		if err != nil {
			return err
		}
		printResult(res)
		return nil
	}

	results, err := experiments.RunAll()
	if err != nil {
		return err
	}
	for _, res := range results {
		printResult(res)
	}
	return nil
}

func printResult(res *experiments.Result) {
	fmt.Printf("=== %s — %s ===\n%s\n", res.ID, res.Title, res.Text)
}

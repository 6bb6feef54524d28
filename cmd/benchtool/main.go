// Command benchtool regenerates the tables of the paper's evaluation (§5,
// experiments E1–E7 of DESIGN.md §4) and prints them in the paper's
// layout.
//
// Usage:
//
//	benchtool -table mvv        # E1: Table 1  (MVV times, Educe vs Educe*)
//	benchtool -table wisconsin  # E2/E3: Tables 2a/2b (times and I/O frequencies)
//	benchtool -table icheck     # E4: Table 3  (IC preprocess, GC vs Educe*)
//	benchtool -table cpuscale   # E5: §5.4 client/server CPU scaling
//	benchtool -table phases     # E6: §3.1 compile-phase split
//	benchtool -table ruleuse    # E7: §2 per-use rule cost
//	benchtool -table all        # every table
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: mvv, wisconsin, icheck, cpuscale, phases, ruleuse, all")
	wiscN := flag.Int("wisconsin-n", 10000, "Wisconsin relation cardinality")
	flag.Parse()

	run := func(name string, f func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtool: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("mvv", printMVV)
	run("wisconsin", func() error { return printWisconsin(*wiscN) })
	run("icheck", printICheck)
	run("cpuscale", printCPUScale)
	run("phases", printPhases)
	run("ruleuse", printRuleUse)
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

func printMVV() error {
	rows, err := bench.MVVTable()
	if err != nil {
		return err
	}
	fmt.Println("Table 1 — Educe* / Educe: MVV times (ms per query class, 10 queries each)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tclass\trun\ttotal(ms)\tper-query(ms)\tsolutions")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%d\n",
			r.System, r.Class, r.Run, ms(r.Elapsed), ms(r.PerQuery), r.Solutions)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printWisconsin(n int) error {
	rows, err := bench.WisconsinTable(n)
	if err != nil {
		return err
	}
	fmt.Printf("Table 2a/2b — Educe*: Wisconsin (n=%d): times and I/O frequencies\n", n)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tformat\ttime(ms)\trows\tbuffer-acc\tpage-reads\tpage-writes")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
			r.Query, r.Format, ms(r.Elapsed), r.Rows, r.IO.Accesses, r.IO.Reads, r.IO.Writes)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printICheck() error {
	rows, err := bench.ICTable()
	if err != nil {
		return err
	}
	fmt.Println("Table 3 — Integrity constraints checking: preprocess (ms)")
	byUpdate := map[int]map[bench.System]time.Duration{}
	for _, r := range rows {
		if byUpdate[r.Update] == nil {
			byUpdate[r.Update] = map[bench.System]time.Duration{}
		}
		byUpdate[r.Update][r.System] = r.Elapsed
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "update\tGC(ms)\tE*(ms)")
	for u := 1; u <= len(byUpdate); u++ {
		fmt.Fprintf(w, "%d\t%s\t%s\n", u, ms(byUpdate[u][bench.GoodCompiler]), ms(byUpdate[u][bench.EduceStar]))
	}
	w.Flush()
	fmt.Println("GC: a good Prolog compiler (pure in-memory WAM); E*: Educe*")
	fmt.Println()
	return nil
}

func printCPUScale() error {
	rows, err := bench.MVVTable()
	if err != nil {
		return err
	}
	fmt.Println("§5.4 — CPU scaling (server 25 MHz/4 MIPS vs diskless client 20 MHz/3 MIPS)")
	fmt.Println("The workload is CPU-bound, so times scale with the MIPS ratio (x4/3).")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tclass\tserver(ms)\tclient(ms)")
	for _, r := range rows {
		if r.Run != 2 {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", r.System, r.Class,
			ms(time.Duration(float64(r.Elapsed)*bench.ServerScale)),
			ms(time.Duration(float64(r.Elapsed)*bench.ClientScale)))
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printPhases() error {
	rows, err := bench.PhaseTable()
	if err != nil {
		return err
	}
	fmt.Println("§3.1 — compile pipeline split (the ~90% reading / ~10% codegen claim)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "corpus\tparse(ms)\tcodegen(ms)\tlink(ms)\tparse%\tcodegen+link%")
	for _, r := range rows {
		total := r.Parse + r.Compile + r.Link
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.0f%%\t%.0f%%\n",
			r.Corpus, ms(r.Parse), ms(r.Compile), ms(r.Link),
			100*float64(r.Parse)/float64(total),
			100*float64(r.Compile+r.Link)/float64(total))
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printRuleUse() error {
	rows, err := bench.RuleUseTable(100)
	if err != nil {
		return err
	}
	fmt.Println("§2 — per-use cost of an externally stored rule set")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tuses\ttotal(ms)\tper-use(ms)\tasserts\tretrieve(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%d\t%s\n",
			r.System, r.Uses, ms(r.Elapsed), ms(r.PerUse), r.Asserts, ms(r.Retrieve))
	}
	w.Flush()
	fmt.Println()
	return nil
}

// vsynclitmus runs the built-in litmus tests under every memory model
// and prints the allowed/forbidden matrix — a conformance view of the
// consistency predicates (SC, TSO, WMM, and the psc-ablation model RA).
//
// Every verdict is mapped explicitly: "forbidden" (no execution shows
// the weak outcome), "ALLOWED" (some execution does), "await-hang" (an
// await loop can spin forever — a litmus test outside AMC's terminating
// fragment), and "ERROR" for engine failures, whose details go to
// stderr. Exit status is 2 when any cell was an engine error (or
// canceled), 0 otherwise.
//
// -store PATH serves already-decided cells from the shared verdict
// store (the same zero-spec addressing vsyncsuite uses for its litmus
// cells, so the two tools warm each other) and appends fresh decisive
// outcomes; -remote URL tiers lookups through a vsyncstored service.
// -workers N shares each run's exploration frontier across N workers.
//
// Usage:
//
//	vsynclitmus            # weak (relaxed) variants
//	vsynclitmus -strong    # release/acquire and SC variants
//	vsynclitmus -name MP   # one test only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mm"
	"repro/internal/report"
	"repro/vsync"
)

func main() {
	var (
		strong    = flag.Bool("strong", false, "use release/acquire (and SC where relevant) accesses")
		name      = flag.String("name", "", "run a single litmus test")
		workers   = cli.Workers()
		storePath = cli.Store()
		remote    = cli.Remote()
	)
	flag.Parse()
	ctx := cli.SignalContext("vsynclitmus")

	st := cli.OpenStore("vsynclitmus", *storePath, *remote)
	if st != nil {
		defer st.Close()
	}
	models := append(mm.All(), mm.RA)
	names := harness.LitmusNames()
	if *name != "" {
		names = []string{*name}
	}
	headers := []string{"litmus"}
	for _, m := range models {
		headers = append(headers, m.Name())
	}
	strength := "weak"
	if *strong {
		strength = "strong"
	}
	t := report.NewTable(fmt.Sprintf("litmus conformance (%s variants): is the weak outcome observable?", strength), headers...)
	hadError := false
	hits := 0
	for _, n := range names {
		p := harness.Litmus(n, *strong)
		if p == nil {
			fmt.Fprintf(os.Stderr, "vsynclitmus: unknown litmus %q\n", n)
			os.Exit(2)
		}
		row := []any{n}
		for _, m := range models {
			// Litmus cells are addressed with the nil-spec key Run derives
			// — the program is self-contained, there is no barrier spec —
			// matching the suite matrix's litmus keys.
			rr := vsync.RunCtx(ctx, m, []*vsync.Program{p}, vsync.RunOptions{
				Parallelism:   1,
				WorkersPerRun: workers(),
				Store:         st,
			})
			res := rr.Results[0]
			hits += rr.StoreHits
			if rr.StoreErr != nil {
				fmt.Fprintln(os.Stderr, "vsynclitmus: warning:", rr.StoreErr)
			}
			// Verdict.LitmusLabel maps every verdict explicitly: an
			// unexplained raw string in the observability matrix would
			// leave the reader guessing whether the *outcome* or the
			// *engine* is at fault. Engine failures additionally explain
			// themselves on stderr and fail the invocation.
			row = append(row, res.Verdict.LitmusLabel())
			switch res.Verdict {
			case core.OK, core.SafetyViolation, core.ATViolation:
			case core.Canceled:
				hadError = true
				fmt.Fprintf(os.Stderr, "vsynclitmus: %s under %s: run canceled before a verdict\n", n, m.Name())
			default:
				hadError = true
				fmt.Fprintf(os.Stderr, "vsynclitmus: %s under %s: %v\n", n, m.Name(), res.Err)
			}
		}
		t.Add(row...)
	}
	fmt.Println(t.String())
	if st != nil {
		fmt.Printf("store: %d of %d cells served without an AMC run\n", hits, (len(names))*len(models))
	}
	if hadError {
		os.Exit(2)
	}
}

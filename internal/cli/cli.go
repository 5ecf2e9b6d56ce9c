// Package cli centralizes the flag surface the vsync command-line
// tools share. Every binary used to hand-roll its own -store, -model,
// -workers and friends, and the names, defaults and help strings had
// started to drift; these constructors are the single source of truth,
// so `vsynccheck -store X -workers 4` and `vsyncsuite -store X
// -workers 4` mean exactly the same thing.
//
// The constructors register on the default flag.CommandLine set (which
// is what every tool parses) and return the value pointer — or, where
// the value is resolved after parsing, a closure — so a main reads:
//
//	storePath := cli.Store()
//	workers := cli.Workers()
//	flag.Parse()
//	st := cli.OpenStore("vsynccheck", *storePath, *remote)
//	opts := vsync.RunOptions{WorkersPerRun: workers()}
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/mm"
	"repro/vsync"
)

// ExitUndecided is the exit status the tools share for "the run hit
// its budget (or was interrupted) with the answer still open, and a
// checkpoint was written" — distinct from 0 (verified), 1 (violation)
// and 2 (usage/engine error), so scripts can rerun-to-resume.
const ExitUndecided = 3

// Store registers the -store flag: the shared persistent verdict log.
func Store() *string {
	return flag.String("store", "", "persistent verdict store (shared append-only log): serve already-decided problems, append new verdicts")
}

// Remote registers the -remote flag: the optional verdict-service tier
// behind -store.
func Remote() *string {
	return flag.String("remote", "", "base URL of a vsyncstored verdict service backing -store (best-effort: unreachable degrades to local-only)")
}

// Workers registers the -workers flag, intra-run work stealing, and
// returns a closure reading it after flag.Parse with 0 resolved to
// GOMAXPROCS: the library's zero WorkersPerRun is one worker, so the
// flag's zero is resolved here, once for every tool.
func Workers() func() int {
	n := flag.Int("workers", 1, "intra-run work-stealing workers per AMC run (0 = GOMAXPROCS, 1 = sequential)")
	shared = append(shared, Min{Flag: "workers"})
	return func() int {
		if *n == 0 {
			return runtime.GOMAXPROCS(0)
		}
		return *n
	}
}

// Par registers the -par flag: whole-run fan-out.
func Par() *int {
	p := flag.Int("par", 0, "concurrent AMC runs (0 = GOMAXPROCS, 1 = one at a time)")
	shared = append(shared, Min{Flag: "par"})
	return p
}

// Min is the range a numeric flag (int, int64, float64 or duration) of
// a tool accepts: at least Least and, when Most is nonzero, at most Most,
// a duration counted in seconds. A flag that names Needs may be nonzero
// only when the string flag Needs names is set too.
type Min struct {
	Flag        string
	Least, Most float64
	Needs       string
}

// shared holds the ranges of the flags this package's constructors
// registered: every CheckCounts checks them after the tool's own.
var shared []Min

// CheckCounts is the one check of the numbers a tool takes on its
// command line (its own, such as -threads, -iters and -passes, and the
// shared -par, -workers, -min-hit-rate, budget and checkpoint flags),
// after flag.Parse: the first flag out of its range exits 2 with one
// line naming it. A range that depends on the problem, such as a
// workload's thread range, is workload.CheckThreads'.
func CheckCounts(tool string, mins ...Min) {
	if err := checkCounts(flag.CommandLine, append(mins, shared...)); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
}

func checkCounts(fs *flag.FlagSet, mins []Min) error {
	for _, m := range mins {
		f := fs.Lookup(m.Flag)
		var n float64
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			n = float64(v)
		case int64:
			n = float64(v)
		case float64:
			n = v
		case time.Duration:
			n = v.Seconds()
		}
		switch {
		case n < m.Least:
			return fmt.Errorf("-%s %s: the least value is %v", m.Flag, f.Value, m.Least)
		case m.Most != 0 && n > m.Most:
			return fmt.Errorf("-%s %s: the greatest value is %v", m.Flag, f.Value, m.Most)
		case m.Needs != "" && n != 0 && fs.Lookup(m.Needs).Value.String() == "":
			return fmt.Errorf("-%s %s needs -%s", m.Flag, f.Value, m.Needs)
		}
	}
	return nil
}

// Model registers the -model flag; resolve it with ParseModel.
func Model() *string {
	return flag.String("model", "wmm", "memory model: "+modelNames())
}

// modelNames lists what -model accepts — every name mm.ByName resolves —
// for the flag's help and for ParseModel's refusal.
func modelNames() string {
	var names []string
	for _, m := range append(mm.All(), mm.Ablations()...) {
		names = append(names, m.Name())
	}
	return strings.Join(names, ", ")
}

// MinHitRate registers the -min-hit-rate flag: the store-efficacy
// floor CI uses to assert a warm pass did near-zero AMC work.
func MinHitRate() *float64 {
	r := flag.Float64("min-hit-rate", 0, "fail unless the store served at least this fraction of cells (0 to 1)")
	shared = append(shared, Min{Flag: "min-hit-rate", Most: 1})
	return r
}

// BudgetFlags registers the -budget / -budget-graphs / -budget-mem
// triple and returns a closure assembling the vsync.Budget after
// flag.Parse. A budget hit never loses work: the run drains cleanly,
// checkpoints (with -checkpoint-dir) and exits ExitUndecided; a rerun
// resumes where it stopped.
func BudgetFlags() func() vsync.Budget {
	d := flag.Duration("budget", 0, "wall-clock budget per run segment (0 = unbounded); on exhaustion the run checkpoints and exits undecided")
	g := flag.Int64("budget-graphs", 0, "popped-graph budget per run segment (0 = the default, 2,000,000)")
	m := flag.Int64("budget-mem", 0, "absolute heap budget in bytes, sampled during exploration (0 = unbounded)")
	shared = append(shared, Min{Flag: "budget"}, Min{Flag: "budget-graphs"}, Min{Flag: "budget-mem"})
	return func() vsync.Budget {
		return vsync.Budget{MaxDuration: *d, MaxGraphs: *g, MaxMemBytes: uint64(max(*m, 0))}
	}
}

// CheckpointDir registers the -checkpoint-dir flag: the directory
// crash-safe runs persist their interrupted frontiers to (and resume
// from). The directory is created if missing.
func CheckpointDir() *string {
	return flag.String("checkpoint-dir", "", "directory for run checkpoints: budget-exhausted or interrupted runs persist their frontier here and a rerun resumes it")
}

// CheckpointInterval registers the -checkpoint-interval flag, which
// needs -checkpoint-dir.
func CheckpointInterval() *time.Duration {
	d := flag.Duration("checkpoint-interval", 0, "additionally snapshot live frontiers to -checkpoint-dir at this cadence, bounding what a crash can lose (0 = only on budget hit or interrupt)")
	shared = append(shared, Min{Flag: "checkpoint-interval", Needs: "checkpoint-dir"})
	return d
}

// EnsureCheckpointDir validates/creates a -checkpoint-dir value,
// exiting 2 on failure; "" passes through (checkpointing off).
func EnsureCheckpointDir(tool, dir string) string {
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
	return dir
}

// SignalContext returns a context canceled on the first SIGINT or
// SIGTERM — the tools' cooperative shutdown: in-flight AMC runs drain,
// checkpoint (with -checkpoint-dir) and report instead of vanishing. A
// second signal exits immediately with the conventional 130.
func SignalContext(tool string) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintf(os.Stderr, "%s: interrupted — draining and checkpointing (send again to exit immediately)\n", tool)
		cancel()
		<-ch
		os.Exit(130)
	}()
	return ctx
}

// ParseModel resolves a -model value, exiting 2 with the uniform
// message on an unknown name.
func ParseModel(tool, name string) vsync.Model {
	m, err := resolveModel(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
	return m
}

func resolveModel(name string) (vsync.Model, error) {
	if m := mm.ByName(name); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("unknown model %q (%s)", name, modelNames())
}

// OpenStore opens the shared verdict session the -store/-remote pair
// names, printing the uniform banner; it returns nil when path is
// empty (no store requested) and exits 2 on open errors. Remote-tier
// degradation messages go to stderr prefixed with the tool name.
func OpenStore(tool, path, remote string) *vsync.VerdictStore {
	if path == "" {
		if remote != "" {
			fmt.Fprintf(os.Stderr, "%s: -remote requires -store (the remote tier backs a local log)\n", tool)
			os.Exit(2)
		}
		return nil
	}
	var opts *vsync.StoreOptions
	if remote != "" {
		opts = &vsync.StoreOptions{
			Remote: remote,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
			},
		}
	}
	st, err := vsync.OpenStoreWith(path, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(2)
	}
	s := st.Stats()
	epoch := vsync.StoreCodeEpoch()
	fmt.Printf("store: %s — %d verdicts loaded, code epoch %016x%016x, %.1f MB scanned in %v",
		st.Path(), s.Loaded, epoch[0], epoch[1], float64(s.OpenBytes)/1e6, s.OpenTime.Round(100*time.Microsecond))
	if s.Stale > 0 {
		fmt.Printf(", %d records from other code epochs (not served, retained for flip-backs)", s.Stale)
	}
	if s.Corrupted > 0 {
		fmt.Printf(", %d corrupt tail bytes discarded", s.Corrupted)
	}
	if remote != "" {
		fmt.Printf(", remote tier %s", remote)
	}
	round := func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
	fmt.Printf("; open: read %v, check %v, index %v\n", round(s.OpenRead), round(s.OpenCheck), round(s.OpenIndex))
	return st
}

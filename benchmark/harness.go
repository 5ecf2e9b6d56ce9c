package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/vsync"
)

// bench holds what one benchmark run needs: where the checkout is,
// where scratch files go, and the inputs derived from the seed.
type bench struct {
	root    string // checkout root: the directory holding cmd/ and go.mod
	work    string // scratch directory of this run, removed when it ends
	exp     *expected
	seed    int64
	seconds float64   // how long a run measures
	filler  int       // seed-generated records appended to the warm store
	setups  int       // how many times an untraced run sets up (setup_s is their median)
	log     io.Writer // progress and diagnostics
	env     *env      // the set-up the workloads run against
}

// env is one finished set-up: the built tools and the warm store.
type env struct {
	dir  string
	bin  string // directory of the six CLIs
	warm string // verdict log holding the suite's verdicts plus the filler
}

func (h *bench) logf(format string, args ...any) {
	fmt.Fprintf(h.log, format+"\n", args...)
}

// setup builds the six CLIs from the checkout's sources and generates
// the warm store: the suite's own verdicts followed by h.filler records
// whose keys and names come from the seed.
func (h *bench) setup() (*env, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(h.work, "setup-")
	if err != nil {
		return nil, 0, err
	}
	e := &env{dir: dir, bin: filepath.Join(dir, "bin"), warm: filepath.Join(dir, "warm", "v.log")}
	build := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/...")
	build.Dir = h.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("building the CLIs: %v\n%s", err, out)
	}
	inv := h.invoke(time.Minute, filepath.Join(e.bin, "vsyncsuite"), "-par", "2", "-store", e.warm)
	if inv.err != nil || inv.exit != 0 {
		return nil, 0, fmt.Errorf("warming the store: exit %d, %v\n%s", inv.exit, inv.err, inv.out)
	}
	// The filler is stamped with this binary's code epoch; the tools
	// would discard it as another build's history if theirs differed.
	epoch := vsync.StoreCodeEpoch()
	if m := storeBanner.FindStringSubmatch(inv.out); m == nil || m[2] != fmt.Sprintf("%016x%016x", epoch[0], epoch[1]) {
		return nil, 0, fmt.Errorf("the tools and the benchmark disagree on the store's code epoch: %s", inv.out)
	}
	if err := h.fill(e.warm); err != nil {
		return nil, 0, fmt.Errorf("filling the warm store: %w", err)
	}
	return e, time.Since(start), nil
}

// fill appends the filler records under this build's code epoch, so the
// tools load and index them like verdicts of their own.
func (h *bench) fill(path string) error {
	st, err := vsync.OpenStore(path)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(h.seed))
	epoch := vsync.StoreCodeEpoch()
	verdicts := []core.Verdict{core.OK, core.SafetyViolation, core.ATViolation}
	for i := 0; i < h.filler; i++ {
		key := graph.Hash128{rng.Uint64(), rng.Uint64()}
		name := fmt.Sprintf("filler/%08x", rng.Uint32())
		if err := st.PutRaw(epoch, key, verdicts[rng.Intn(len(verdicts))], name); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// invocation is one finished child process.
type invocation struct {
	wall  time.Duration // fork/exec to wait
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
	exit  int
	out   string // stdout and stderr
	err   error  // could not start, or timed out
}

func (h *bench) invoke(timeout time.Duration, bin string, args ...string) invocation {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = h.root
	cmd.Stdout, cmd.Stderr = &out, &out
	cmd.WaitDelay = time.Second
	start := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start), out: out.String()}
	if ps := cmd.ProcessState; ps != nil {
		inv.exit = ps.ExitCode()
		inv.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			inv.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	var exitErr *exec.ExitError
	switch {
	case ctx.Err() != nil:
		inv.err = fmt.Errorf("timed out after %v", timeout)
	case err != nil && !errors.As(err, &exitErr):
		inv.err = err
	}
	return inv
}

// loopStats is what a closed loop of invocations observed.
type loopStats struct {
	attempted, failed int
	wall, self, cpu   []time.Duration // successful timed invocations only
	rssMB             []float64
	pins              map[string]int64 // the counts every invocation repeated
	stealShare        float64          // CPU time the hypervisor took from the guest during the timed part
}

// hostSteal is the CPU time the hypervisor has so far given to others
// while this guest wanted to run: the steal column of /proc/stat, in
// ticks of 1/100 s. It is 0 where there is no such file. A wall time
// cannot be corrected for it, but a run that reads slow on every
// workload at once can be told from a slow program by it.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * time.Second / 100
}

// closedLoop runs w with one client: the next invocation starts when
// the previous one has exited. One untimed warm-up comes first, then
// timed invocations until dur has passed (at least minReps of them).
// Every invocation is checked; one that times out, exits unexpectedly,
// reports a wrong verdict or a count different from the warm-up's is a
// failure and contributes no timing.
func (h *bench) closedLoop(w *workload, dur time.Duration, minReps int) loopStats {
	var ls loopStats
	timeout := 30 * time.Second
	one := func(timed bool) {
		scratch, err := os.MkdirTemp(h.work, "rep-")
		if err != nil {
			ls.attempted++
			ls.failed++
			h.logf("%s: %v", w.name, err)
			return
		}
		defer os.RemoveAll(scratch)
		bin, args := w.args(h.env, scratch)
		inv := h.invoke(timeout, filepath.Join(h.env.bin, bin), args...)
		ls.attempted++
		var o observed
		err = inv.err
		if err == nil {
			o, err = w.check(h.exp, &inv)
		}
		if err == nil && ls.pins != nil {
			for k, v := range o.pins {
				if ls.pins[k] != v {
					err = fmt.Errorf("%s = %d, the warm-up reported %d", k, v, ls.pins[k])
				}
			}
		}
		if err != nil {
			ls.failed++
			h.logf("%s: invocation %d failed: %v", w.name, ls.attempted, err)
			return
		}
		if !timed {
			ls.pins = o.pins
			timeout = max(timeout, 20*inv.wall)
			return
		}
		ls.wall = append(ls.wall, inv.wall)
		ls.self = append(ls.self, o.self)
		ls.cpu = append(ls.cpu, inv.cpu)
		ls.rssMB = append(ls.rssMB, inv.rssMB)
	}
	one(false)
	if ls.failed > 0 {
		return ls // nothing to compare the timed invocations with
	}
	start, stolen := time.Now(), hostSteal()
	deadline := start.Add(dur)
	// A run that keeps failing stops early instead of spending its
	// time limit on timeouts.
	for rep := 0; (rep < minReps || time.Now().Before(deadline)) && ls.failed < 3; rep++ {
		one(true)
	}
	ls.stealShare = share((hostSteal() - stolen).Seconds(), time.Since(start).Seconds()*float64(runtime.NumCPU()))
	h.logf("%s: %d timed invocations; the host took %.1f%% of the CPU time meanwhile", w.name, len(ls.wall), 100*ls.stealShare)
	return ls
}

// studyCases runs each known-buggy study case once, untimed, and counts
// the ones whose violation class differs from the expected one.
func (h *bench) studyCases() (attempted, failed int) {
	for _, sc := range h.exp.StudyCases {
		inv := h.invoke(30*time.Second, filepath.Join(h.env.bin, "vsynccheck"), sc.Flag, sc.Name)
		attempted++
		got, _, _ := parseCheck(inv.out)
		if inv.err != nil || inv.exit != 1 || got != sc.Verdict {
			failed++
			h.logf("study case %s: exit %d, verdict %q, want exit 1 and %q (%v)", sc.Name, inv.exit, got, sc.Verdict, inv.err)
		}
	}
	return attempted, failed
}

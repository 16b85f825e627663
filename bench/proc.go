//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDir holds what the benchmark leaves in the checkout between
// runs (the compiled programs) and the per-run temp dirs, outDir the
// result and trace files; both are relative to the checkout and named
// in bench/.gitignore. The go tool skips a directory whose name starts
// with a dot.
var (
	workDir = filepath.Join("bench", ".build")
	outDir  = filepath.Join("bench", "out")
)

// programs are the binaries under test, built from the checkout's
// own source.
var programs = []string{"omsbuild", "omsd", "omsearch", "omscompact"}

// env is one benchmark process's footprint: where the programs were
// built, its private temp dir, where results go, and every subprocess
// still running.
type env struct {
	bin   string
	tmp   string
	out   string
	nproc int

	// procs maps every running subprocess to the channel its waiter
	// closes once the process has been reaped.
	mu    sync.Mutex
	procs map[*exec.Cmd]chan struct{}
}

// newEnv builds the programs under test from the checkout at root
// into work/bin and creates the run's temp dir under work; result and
// trace files go to out. The caller must call close.
func newEnv(root, work, out string, nproc int) (*env, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "omsd", "main.go")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(work, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	build := exec.Command("go", args...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	return &env{bin: bin, tmp: tmp, out: out, nproc: nproc, procs: map[*exec.Cmd]chan struct{}{}}, nil
}

// close kills every subprocess still running, waits for each, and
// removes the temp dir. It is idempotent.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = map[*exec.Cmd]chan struct{}{}
	e.mu.Unlock()
	for cmd, reaped := range procs {
		_ = cmd.Process.Kill() // already exited is fine
		<-reaped
	}
	os.RemoveAll(e.tmp)
}

// closeOnSignal tears the run down when the benchmark itself is
// interrupted or terminated; cancel stops the watcher.
func (e *env) closeOnSignal() (cancel func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			e.close()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// command prepares a program under test. Children die with the
// benchmark even when it is killed outright.
func (e *env) command(program string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(e.bin, program), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// track registers a started subprocess for close and returns the
// function its waiter calls once the process has been reaped.
func (e *env) track(cmd *exec.Cmd) (reaped func()) {
	done := make(chan struct{})
	e.mu.Lock()
	e.procs[cmd] = done
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		delete(e.procs, cmd)
		e.mu.Unlock()
		close(done)
	}
}

// usage is what one finished subprocess cost.
type usage struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

// run executes a program to completion, discarding its standard
// output.
func (e *env) run(program string, args ...string) (usage, error) {
	return e.runTo("", program, args...)
}

// runTo executes a program to completion with its standard output
// redirected to a file (stdoutPath "" discards it) and reports its
// wall time, its user+system CPU from the kernel's rusage, and its
// peak RSS.
func (e *env) runTo(stdoutPath, program string, args ...string) (usage, error) {
	cmd := e.command(program, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if stdoutPath != "" {
		f, err := os.Create(stdoutPath)
		if err != nil {
			return usage{}, err
		}
		defer f.Close()
		cmd.Stdout = f
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return usage{}, err
	}
	reaped := e.track(cmd)
	// The child's ru_maxrss is no use: it starts from this process's
	// own resident set at fork time. VmHWM belongs to the program's
	// own address space, so poll it until the process is gone; the
	// last reading misses at most the final few milliseconds.
	exited := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		var last float64
		for {
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				last = mb
			}
			select {
			case <-exited:
				peak <- last
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(exited)
	reaped()
	u := usage{wall: wall, rssMB: <-peak}
	if err != nil {
		return usage{}, fmt.Errorf("%s %s: %v\n%s", program, strings.Join(args, " "), err, stderr.Bytes())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u, nil
}

// daemon is a running omsd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// ready is exec → first /healthz 200.
	ready  time.Duration
	client *http.Client
	// exited closes once the process has been waited for.
	exited chan struct{}

	mu  sync.Mutex
	log bytes.Buffer
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// startOmsd launches omsd on a kernel-chosen loopback port, parses
// the address from its "listening on" line and waits for /healthz.
func (e *env) startOmsd(args ...string) (*daemon, error) {
	cmd := e.command("omsd", append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	reaped := e.track(cmd)
	d := &daemon{cmd: cmd, exited: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second}}
	addr := make(chan string, 1)
	go func() {
		// Reads to EOF, then reaps: Wait must not run before the pipe
		// is drained.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if m := listeningRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait() // exit status is irrelevant: stop() signals the process itself
		reaped()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("omsd exited before listening:\n%s", d.logText())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("omsd did not report its address:\n%s", d.logText())
	}
	for {
		if _, err := d.health(); err == nil {
			break
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("omsd never became healthy:\n%s", d.logText())
		}
		time.Sleep(time.Millisecond)
	}
	d.ready = time.Since(start)
	return d, nil
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop asks omsd to shut down and waits for it; a daemon that
// ignores SIGTERM is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// get fetches a path and returns the body of a 200 response.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// health is the /healthz fields the benchmark reads.
type health struct {
	ManifestGeneration uint64 `json:"manifest_generation"`
}

func (d *daemon) health() (health, error) {
	var h health
	body, err := d.get("/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// awaitGeneration polls /healthz until the daemon serves a manifest
// generation of at least gen.
func (d *daemon) awaitGeneration(ctx context.Context, gen uint64) error {
	for {
		if h, err := d.health(); err == nil && h.ManifestGeneration >= gen {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for manifest generation %d: %w\n%s", gen, ctx.Err(), d.logText())
		case <-d.exited:
			return fmt.Errorf("omsd exited while waiting for manifest generation %d:\n%s", gen, d.logText())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is the kernel's USER_HZ, 100 on every Linux the Go
// runtime supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the daemon's cumulative user+system CPU from
// /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(raw))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in /proc stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

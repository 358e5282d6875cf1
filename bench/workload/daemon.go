package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon is one running satserved child.
type Daemon struct {
	// URL is the replica's base URL ("http://127.0.0.1:PORT").
	URL string
	// BootMS is the time from exec to the "listening on" line.
	BootMS float64

	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been reaped
}

// BuildSatserved compiles cmd/satserved from the repository at root
// into dir and returns the binary's path and the build time.
func BuildSatserved(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "satserved")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/satserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/satserved: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// startDaemon execs bin with args and waits for its "listening on"
// line. The child is killed with the benchmark (Pdeathsig), so no exit
// path of the parent can leave it running.
func startDaemon(bin string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &Daemon{cmd: cmd, done: make(chan struct{})}
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "satserved listening on "); ok {
				addrC <- a
				break
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addrC:
		d.URL = "http://" + a
		d.BootMS = float64(time.Since(start).Microseconds()) / 1000
		return d, nil
	case <-d.done:
		return nil, errors.New("satserved exited before listening")
	case <-time.After(10 * time.Second):
		d.Stop()
		return nil, errors.New("satserved did not start listening within 10s")
	}
}

// Stop terminates the daemon (SIGTERM, then SIGKILL after 3 s) and
// waits until it has been reaped.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// Pid is the daemon's process ID.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// reservePorts asks the kernel for n free loopback ports. A fleet's
// members must know each other's addresses before any of them boots,
// so its ports cannot be left to ":0"; the window between closing the
// probe listener and the daemon binding is covered by a retry.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// StartFleet boots n replicas with default flags plus a fresh store
// directory each under dir. One replica listens on an ephemeral port;
// more are joined into a consistent-hash fleet.
func StartFleet(bin, dir string, n int) ([]*Daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ds, err := startFleetOnce(bin, dir, n, attempt)
		if err == nil {
			return ds, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startFleetOnce(bin, dir string, n, attempt int) ([]*Daemon, error) {
	storeDir := func(i int) string { return filepath.Join(dir, fmt.Sprintf("store-%d-%d", attempt, i)) }
	if n == 1 {
		d, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-store-dir", storeDir(0))
		if err != nil {
			return nil, err
		}
		return []*Daemon{d}, nil
	}
	ports, err := reservePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
	}
	var ds []*Daemon
	for i := range urls {
		peers := append(append([]string(nil), urls[:i]...), urls[i+1:]...)
		d, err := startDaemon(bin, "-addr", strings.TrimPrefix(urls[i], "http://"),
			"-store-dir", storeDir(i), "-advertise", urls[i], "-peers", strings.Join(peers, ","))
		if err != nil {
			StopAll(ds)
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// StopAll stops every daemon in ds.
func StopAll(ds []*Daemon) {
	for _, d := range ds {
		d.Stop()
	}
}

// --- process accounting ---------------------------------------------------

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux port Go supports.
const clockTick = 100

// procCPU reads a live process's user and system CPU seconds.
func procCPU(pid int) (user, sys float64) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(buf)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	s, _ := strconv.ParseFloat(f[12], 64)
	return u / clockTick, s / clockTick
}

// procPeakRSS reads a live process's peak resident set in MiB.
func procPeakRSS(pid int) float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPU reads this process's user and system CPU seconds.
func selfCPU() (user, sys float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// cpuSample is the CPU spent so far by the benchmark and its daemons.
type cpuSample struct{ user, sys float64 }

// since returns the CPU spent between the earlier sample and c.
func (c cpuSample) since(earlier cpuSample) cpuSample {
	return cpuSample{c.user - earlier.user, c.sys - earlier.sys}
}

func sampleCPU(ds []*Daemon) cpuSample {
	u, s := selfCPU()
	for _, d := range ds {
		du, dsys := procCPU(d.Pid())
		u, s = u+du, s+dsys
	}
	return cpuSample{u, s}
}

func peakRSS(ds []*Daemon) float64 {
	mb := procPeakRSS(os.Getpid())
	for _, d := range ds {
		mb += procPeakRSS(d.Pid())
	}
	return mb
}

// --- /metrics -------------------------------------------------------------

// ParseMetrics reads a Prometheus text exposition into a map from
// series ("name" or "name{labels}") to value. Comment lines (# HELP,
// # TYPE, # exemplar), malformed lines and non-finite values are skipped.
func ParseMetrics(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; a label set, when there is
		// one, must have closed before it.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		series := strings.TrimSpace(line[:cut])
		if strings.ContainsRune(series, '{') != strings.HasSuffix(series, "}") {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue // a non-finite sample would poison every sum it joins
		}
		out[series] = v
	}
	return out
}

// scrape sums the /metrics series of every daemon.
func scrape(client *http.Client, ds []*Daemon) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range ds {
		resp, err := client.Get(d.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		m := ParseMetrics(resp.Body)
		resp.Body.Close()
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

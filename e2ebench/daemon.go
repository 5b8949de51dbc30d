package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/snap"
)

// daemon is one ftbfsd process started by the benchmark and the client
// that drives its public HTTP API.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	api  *http.Client
	log  *os.File
}

// startDaemon spawns ftbfsd on a free loopback port and waits until it
// answers /healthz.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf,
		api: &http.Client{Timeout: 60 * time.Second}}
	// Poll every 200 µs: set-up is timed, and the runtime's own sleeps
	// would round each wait up to a millisecond or more.
	tm, err := newTimer()
	if err != nil {
		d.stop()
		return nil, err
	}
	defer tm.close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.api.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ftbfsd on %s not healthy after 20s (log: %s)", addr, logPath)
		}
		if err := tm.sleep(200 * time.Microsecond); err != nil {
			d.stop()
			return nil, err
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop shuts the daemon down gracefully and waits for it to exit,
// killing it if it has not exited within 15 s.
func (d *daemon) stop() {
	d.api.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// peakRSSMiB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the daemon's CPU time so far (user + system), in the
// kernel's 100 Hz clock ticks.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return (ut + st) / 100, nil
}

// call sends one API request and decodes a JSON reply into out (when
// non-nil), failing unless the status is want.
func (d *daemon) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.api.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

func (d *daemon) registerGraph(name, edgeList string) error {
	body, err := json.Marshal(map[string]string{"name": name, "edgeList": edgeList})
	if err != nil {
		return err
	}
	return d.call(http.MethodPost, "/v1/graphs", body, http.StatusCreated, nil)
}

// buildInfo is the part of the build resource the benchmark reads.
type buildInfo struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"`
	Error    string  `json:"error"`
	QueuedMS float64 `json:"queuedMs"`
	Edges    int     `json:"edges"`
}

// build starts a dual build of graph from the source and polls the build
// resource until it is ready. It returns the client-observed time from
// POST to ready and the CPU time ftbfsd spent meanwhile.
func (d *daemon) build(graphName string, workers int) (buildInfo, time.Duration, float64, error) {
	body := fmt.Sprintf(`{"mode":"dual","sources":[%d],"seed":%d,"parallelism":%d}`, source, buildSeed, workers)
	var info buildInfo
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return info, 0, 0, err
	}
	start := time.Now()
	if err := d.call(http.MethodPost, "/v1/graphs/"+graphName+"/builds", []byte(body), http.StatusAccepted, &info); err != nil {
		return info, 0, 0, err
	}
	path := "/v1/graphs/" + graphName + "/builds/" + info.ID
	for {
		if err := d.call(http.MethodGet, path, nil, http.StatusOK, &info); err != nil {
			return info, 0, 0, err
		}
		switch info.Status {
		case "ready":
			wall := time.Since(start)
			cpu1, err := d.cpuSeconds()
			return info, wall, cpu1 - cpu0, err
		case "failed", "cancelled":
			return info, 0, 0, fmt.Errorf("build %s %s: %s", info.ID, info.Status, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cacheCounters is the memo aggregate of GET /v1/stats.
type cacheCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (d *daemon) stats() (cacheCounters, error) {
	var s struct {
		Cache *cacheCounters `json:"cache"`
	}
	if err := d.call(http.MethodGet, "/v1/stats", nil, http.StatusOK, &s); err != nil {
		return cacheCounters{}, err
	}
	if s.Cache == nil {
		return cacheCounters{}, errors.New("stats: no ready build")
	}
	return *s.Cache, nil
}

// snapshot downloads and decodes a ready build's structure.
func (d *daemon) snapshot(graphName, buildID string) (*snap.Snapshot, error) {
	resp, err := d.api.Get(d.base + "/v1/graphs/" + graphName + "/builds/" + buildID + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s/%s: status %d", graphName, buildID, resp.StatusCode)
	}
	return snap.Decode(resp.Body)
}

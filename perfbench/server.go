package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running schemr-server process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{} // closed once the process has been reaped
	waitErr error         // the exit status; read after exited is closed
}

// snapshotInterval is the server's checkpoint interval: longer than a run,
// so that no checkpoint fires while it measures.
const snapshotInterval = "5m"

// startServer boots the server binary on dataDir at a free loopback port
// with its default flags apart from the data directory, the address, the
// indexer interval and the checkpoint interval. Its log goes to logPath.
func startServer(bin, dataDir, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-data", dataDir, "-addr", addr,
		"-sync", "1s", "-snapshot-interval", snapshotInterval)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Should the benchmark die without reaching stop, the kernel kills the
	// server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.exited)
	}()
	return p, nil
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop kills the server and waits until it has exited; calling it again
// is a no-op. The run's data directory is a throwaway copy, so no final
// checkpoint is needed.
func (p *serverProc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // fails only if the process already exited; reaped below either way
	<-p.exited
}

// waitReady polls the search until it first succeeds and returns the time
// since start, the server's set-up time in wall-clock terms.
func (p *serverProc) waitReady(c *http.Client, probe searchReq, start time.Time, limit time.Duration) (time.Duration, error) {
	body, err := json.Marshal(probe)
	if err != nil {
		return 0, err
	}
	for {
		select {
		case <-p.exited:
			return 0, fmt.Errorf("server exited during start-up: %v", p.waitErr)
		default:
		}
		resp, err := c.Post(p.base+"/api/v1/search", "application/json", bytes.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("server not ready after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuSeconds returns the CPU time the server has used so far, user and
// system, from /proc. Unlike wall time it leaves out time spent waiting
// for the disk or for a CPU the host gave to someone else.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at field 3;
	// utime and stime are fields 14 and 15, in clock ticks.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc stat: unexpected format")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: bad utime or stime")
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times: 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// newClient returns an HTTP client that keeps at most conns connections to
// the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}

// scrape fetches and parses the server's /metrics.
func (p *serverProc) scrape(ctx context.Context, c *http.Client) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

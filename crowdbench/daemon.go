package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
)

// pollEvery is how often the client samples /metrics or a plan while it
// waits for the daemon; it bounds the resolution of fresh_s and setup_s.
const pollEvery = 25 * time.Millisecond

// daemon is one crowdmapd subprocess, run as it ships: only the
// deployment flags -addr, -data-dir and -interval are set.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	interval time.Duration
	hc       *http.Client
	launched time.Time
	// ready is when /readyz first answered 200. The daemon starts its scan
	// ticker just before it marks itself ready and before its listener
	// accepts, so scans run at ready + k*interval (within a millisecond).
	ready  time.Time
	exited chan struct{}
	// cpuS and rssMiB are read from the process's resource usage once it
	// has been reaped: user+sys CPU over its whole life and its peak RSS
	// (the kernel's VmHWM).
	cpuS, rssMiB float64
}

// seedDataDir writes the base archives into a fresh data directory
// through the daemon's own WAL-backed store, so the first scan after
// launch sees the whole base corpus and setup runs the same jobs every
// time.
func seedDataDir(dir string, base []capture) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wal, err := store.OpenWAL(dir)
	if err != nil {
		return err
	}
	for _, c := range base {
		if err := wal.Store().Put(server.CollCaptures, c.ID, c.Archive); err != nil {
			wal.Close()
			return err
		}
	}
	return wal.Close()
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// launch starts the daemon and returns once /readyz answers 200.
func launch(bin, dataDir, logPath string, interval time.Duration, hc *http.Client) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-interval", interval.String())
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, interval: interval, hc: hc, exited: make(chan struct{})}
	d.launched = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start crowdmapd: %w", err)
	}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		if st := cmd.ProcessState; st != nil {
			d.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
			if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
				d.rssMiB = float64(ru.Maxrss) / 1024 // KiB on Linux
			}
		}
		close(d.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("crowdmapd exited during startup (log: %s)", logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("crowdmapd not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// nextTick returns the first scan tick strictly after t.
func (d *daemon) nextTick(t time.Time) time.Time {
	k := t.Sub(d.ready)/d.interval + 1
	return d.ready.Add(k * d.interval)
}

// metrics fetches the daemon's GET /metrics snapshot.
func (d *daemon) metrics() (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// stop sends SIGTERM (the graceful path: drain, pair-cache save, WAL
// compaction) and waits for the process to be reaped.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("crowdmapd did not exit within 60s of SIGTERM")
	}
	if st := d.cmd.ProcessState; st == nil || !st.Success() {
		return fmt.Errorf("crowdmapd exited with %v", d.cmd.ProcessState)
	}
	return nil
}

// kill ends the process without ceremony and waits for it; used on
// error paths so no daemon outlives the benchmark.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// vmHWM reads the live process's peak RSS so far (MiB; NaN if unreadable).
func (d *daemon) vmHWM() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return math.NaN()
}

// dirMiB is the total size of the regular files under dir.
func dirMiB(dir string) (float64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20), err
}

// counter reads a counter from a snapshot (absent = 0).
func counter(s obs.Snapshot, name string) int64 { return s.Counters[name] }

// histSum reads a histogram's sum (absent = 0).
func histSum(s obs.Snapshot, name string) float64 { return s.Histograms[name].Sum }

// histCount reads a histogram's count (absent = 0).
func histCount(s obs.Snapshot, name string) int64 { return s.Histograms[name].Count }

// publishEvents counts completed publishes, including the ones that left
// the plan unchanged: Publish of identical content keeps the version and
// ETag and only bumps mapserve.publish.unchanged, yet the upload that
// triggered it is served all the same.
func publishEvents(s obs.Snapshot) int64 {
	return counter(s, "mapserve.publishes") + counter(s, "mapserve.publish.unchanged")
}

// jobsSettled reports that the scheduler holds no queued or running job
// and every enqueued job has finished.
func jobsSettled(s obs.Snapshot) bool {
	return s.Gauges["sched.workers.busy"] == 0 && s.Gauges["sched.queue.depth"] == 0 &&
		counter(s, "sched.jobs.enqueued") == counter(s, "sched.jobs.completed")+counter(s, "sched.jobs.failed")
}

// waitIdle blocks until the daemon has no job queued or running and a
// scan that started after the last job ended has finished without
// starting another: nothing is left that an upload could queue behind.
// Scans start on the ticks, so the scan of the first tick after the jobs
// settled is such a scan. It returns the snapshot it ended on.
func (d *daemon) waitIdle(deadline time.Time) (obs.Snapshot, error) {
	for {
		s, err := d.metrics()
		if err != nil {
			return s, err
		}
		if jobsSettled(s) {
			jobs := counter(s, "sched.jobs.enqueued")
			time.Sleep(time.Until(d.nextTick(time.Now()).Add(5 * time.Millisecond)))
			if s, err = d.metrics(); err != nil {
				return s, err
			}
			scans := counter(s, "queue.jobs.processed")
			for counter(s, "queue.jobs.processed") == scans && time.Now().Before(deadline) {
				time.Sleep(pollEvery)
				if s, err = d.metrics(); err != nil {
					return s, err
				}
			}
			if jobsSettled(s) && counter(s, "sched.jobs.enqueued") == jobs {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return s, errors.New("daemon did not go idle in time")
		}
		time.Sleep(pollEvery)
	}
}

// postJSON is a small helper for the locate route.
func postJSON(hc *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/serve"
)

const (
	// servedClients is the closed loop's client count: one connection per
	// core of the 2-core reference box, matching the daemon's default 2
	// workers, so the loop never queues work it cannot start.
	servedClients = 2
	// setup_s is the median over fresh daemons, setupBefore of them
	// started before the loop (the last serves it) and setupAfter after,
	// so the samples span the same stretch of time as the loop.
	setupBefore, setupAfter = 3, 2
	// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
	clockTicks = 100
)

// servedSpec is sadpload's generator profile at 60 nets x 32 tracks.
func servedSpec(name string, seed int64) bench.Spec {
	return bench.Spec{Name: name, Nets: 60, Tracks: 32, Layers: 3, Seed: seed,
		PinCandidates: 1, AvgHPWL: 32 / 4, Blockages: 2}
}

// servedJob is one prepared request.
type servedJob struct {
	name string
	nl   *netlist.Netlist
	text []byte // the netlist file
	body []byte // the POST /v1/jobs request
}

func newServedJob(name string, seed int64) (servedJob, error) {
	nl := bench.Generate(servedSpec(name, seed))
	var b bytes.Buffer
	if err := nl.Write(&b); err != nil {
		return servedJob{}, err
	}
	body, err := json.Marshal(serve.Request{Name: name, Netlist: b.String()})
	return servedJob{name: name, nl: nl, text: b.Bytes(), body: body}, err
}

// jobRun is what the client observed of one job.
type jobRun struct {
	submit, ack, firstTrace, end, result time.Time
	traceEvents                          int
	state                                serve.State
	body                                 []byte // result response
	err                                  error
}

func (j *jobRun) latency() float64 { return j.result.Sub(j.submit).Seconds() }

// client drives the daemon over HTTP with at most servedClients
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: servedClients, MaxIdleConnsPerHost: servedClients, DisableCompression: true}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// run submits one job, follows its SSE stream to the end event, then
// fetches its result. A job that fails ends when its error is seen.
func (c *client) run(job *servedJob) (r jobRun) {
	r.submit = time.Now()
	defer func() {
		if r.result.IsZero() {
			r.result = time.Now()
		}
	}()
	var id string
	for retries := 0; id == ""; retries++ {
		resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(job.body))
		if err != nil {
			r.err = err
			return r
		}
		if resp.StatusCode == http.StatusTooManyRequests && retries < 30 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(time.Second) // the daemon's Retry-After
			continue
		}
		var ack serve.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit: %s", resp.Status)
		}
		if err != nil {
			r.err = err
			return r
		}
		id = ack.ID
	}
	r.ack = time.Now()
	if r.err = c.follow(id, &r); r.err != nil {
		return r
	}
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.result = time.Now()
	if r.err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("result of %s: %s", id, resp.Status)
	}
	return r
}

// follow reads the job's SSE stream, counting trace events, until the end
// event, then drains the stream so the connection is reused.
func (c *client) follow(id string, r *jobRun) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	atEnd := false
	for {
		line, err := br.ReadSlice('\n')
		switch {
		case bytes.HasPrefix(line, []byte("event: trace")):
			if r.traceEvents == 0 {
				r.firstTrace = time.Now()
			}
			r.traceEvents++
		case bytes.HasPrefix(line, []byte("event: end")):
			atEnd = true
		case atEnd && bytes.HasPrefix(line, []byte("data: ")):
			r.end = time.Now()
			var st serve.JobStatus
			if err := json.Unmarshal(bytes.TrimSpace(line[len("data: "):]), &st); err != nil {
				return fmt.Errorf("end event of %s: %w", id, err)
			}
			r.state = st.State
			if r.traceEvents == 0 {
				r.firstTrace = r.end
			}
			_, err := io.Copy(io.Discard, br)
			return err
		}
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return fmt.Errorf("events of %s ended before the end event: %w", id, err)
		}
	}
}

// daemon is a child sadpd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *lineLog // standard error, line by line with arrival times
	exited chan error
}

// startDaemon starts sadpd with its default workers and queue on a free
// local port and returns once it listens. gctrace adds the Go runtime's
// one-line-per-collection trace on standard error.
func startDaemon(exe string, gctrace bool) (*daemon, error) {
	d := &daemon{cmd: exec.Command(exe, "-addr", "127.0.0.1:0"), log: &lineLog{}, exited: make(chan error, 1)}
	if gctrace {
		d.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	d.cmd.Stderr = d.log
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	if _, rest, ok := strings.Cut(line, "sadpd listening on "); err == nil && ok {
		d.addr, _, _ = strings.Cut(rest, " ")
	}
	if d.addr == "" {
		_ = d.stop() // the start already failed
		return nil, fmt.Errorf("sadpd did not start: %q %v; stderr: %s", line, err, d.log.text())
	}
	// Keep draining stdout (drain messages) until the daemon exits.
	go io.Copy(io.Discard, br)
	return d, nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpu returns the daemon's user+sys CPU time so far.
func (d *daemon) cpu() (float64, error) {
	b, err := os.ReadFile("/proc/" + d.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", d.pid())
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%s/stat: %w", d.pid(), err)
	}
	return (u + s) / clockTicks, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case err := <-d.exited:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("sadpd did not drain within 30s; killed")
	}
}

// lineLog is an io.Writer that keeps each line with its arrival time.
type lineLog struct {
	mu    sync.Mutex
	buf   []byte
	lines []timedLine
}

type timedLine struct {
	at   time.Time
	text string
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.lines = append(l.lines, timedLine{now, string(l.buf[:i])})
		l.buf = l.buf[i+1:]
	}
}

func (l *lineLog) snapshot() []timedLine {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]timedLine(nil), l.lines...)
}

func (l *lineLog) text() string {
	var b strings.Builder
	for _, t := range l.snapshot() {
		b.WriteString(t.text + "\n")
	}
	return b.String()
}

// gcWork counts the collections the runtime traced between from and to
// and estimates the bytes allocated meanwhile from the heap sizes each
// gctrace line prints ("A->B->C MB": heap at start, at end, live), as the
// growth from one collection's live heap to the next one's start.
func gcWork(lines []timedLine, from, to time.Time) (cycles int, allocMB float64) {
	prevLive := -1.0
	for _, l := range lines {
		if !strings.HasPrefix(l.text, "gc ") {
			continue
		}
		var start, end, live float64
		i := strings.Index(l.text, " MB,")
		j := strings.LastIndex(l.text[:max(i, 0)], ", ")
		if i < 0 || j < 0 {
			continue
		}
		if _, err := fmt.Sscanf(strings.ReplaceAll(l.text[j+2:i], "->", " "), "%g %g %g", &start, &end, &live); err != nil {
			continue
		}
		if !l.at.Before(from) && !l.at.After(to) {
			cycles++
			if prevLive >= 0 {
				allocMB += start - prevLive
			}
		}
		prevLive = live
	}
	return cycles, allocMB * 1048576 / 1e6
}

// runLoop drives the jobs through the daemon with servedClients
// concurrent clients, each submitting its next job as soon as its last
// result is in.
func runLoop(c *client, jobs []servedJob) []jobRun {
	runs := make([]jobRun, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runs[i] = c.run(&jobs[i])
			}
		}()
	}
	wg.Wait()
	return runs
}

// jobVerdict checks one job's result from outside the router: it must end
// done with zero cut conflicts, hard overlays and violations, and every
// path of its result text must be a pin-to-pin path of the submitted
// netlist.
func jobVerdict(job *servedJob, r *jobRun) (verdict, *serve.Result) {
	var v verdict
	if r.err != nil {
		v.fail(false, "%s: %v", job.name, r.err)
		return v, nil
	}
	if r.state != serve.StateDone {
		v.fail(false, "%s ended %s", job.name, r.state)
		return v, nil
	}
	var res serve.Result
	if err := json.Unmarshal(r.body, &res); err != nil {
		v.fail(true, "%s: result: %v", job.name, err)
		return v, nil
	}
	s := res.Summary
	if s.HardOverlays > 0 || s.Conflicts > 0 || s.Violations > 0 {
		v.fail(false, "%s: guarantee missed: %d hard overlays, %d cut conflicts, %d violations",
			job.name, s.HardOverlays, s.Conflicts, s.Violations)
	}
	paths, err := parsePaths(res.ResultText)
	if err != nil {
		v.fail(true, "%s: %v", job.name, err)
		return v, &res
	}
	checkPaths(&v, job.nl, paths, s.Routed)
	return v, &res
}

// parsePaths reads the "path <net> (x,y,l) ..." lines of a result text.
func parsePaths(text string) (map[int][]grid.Cell, error) {
	paths := make(map[int][]grid.Cell)
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "path" {
			continue
		}
		id, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("result text: %q", line)
		}
		cells := make([]grid.Cell, 0, len(f)-2)
		for _, t := range f[2:] {
			var c grid.Cell
			if _, err := fmt.Sscanf(t, "(%d,%d,%d)", &c.X, &c.Y, &c.L); err != nil {
				return nil, fmt.Errorf("result text: net %d: %q", id, t)
			}
			cells = append(cells, c)
		}
		paths[id] = cells
	}
	return paths, nil
}

// servedJobs is a run's job count: a hundred per 15 s of measuring time,
// which is what a hundred jobs take on the 2-core reference box, and never
// fewer than a hundred, so job_p90_s has at least 10 samples beyond it.
// The count depends on the measuring time alone, never on speed, so every
// run of one seed routes the same jobs.
func servedJobs(seconds float64) int { return 100 * max(1, int(seconds/15+0.5)) }

// runServed measures the served workload: fresh daemons timed from start
// to listening plus one warm-up job, one of which serves the closed loop
// over the run's jobs.
func runServed(cfg config) (report, error) {
	cat, err := loadCatalogue(cfg.root)
	if err != nil {
		return report{}, err
	}
	exe := cfg.buildDir("bin", "sadpd")
	// Job i routes generator seed 1+1000*seed+i: seed 0 starts sadpload's
	// default job list. The warm-up job is the same for every seed.
	warm, err := newServedJob("warmup", 0)
	if err != nil {
		return report{}, err
	}
	jobs := make([]servedJob, servedJobs(cfg.seconds))
	for i := range jobs {
		if jobs[i], err = newServedJob(fmt.Sprintf("load-%d", i), 1+1000*cfg.seed+int64(i)); err != nil {
			return report{}, err
		}
	}
	quiesce()

	var (
		log      spanLog
		setup    []float64
		warmRuns []jobRun
	)
	// startWarm starts a daemon and runs the warm-up job on it: one
	// set-up sample.
	startWarm := func(gctrace bool) (*daemon, error) {
		t0 := time.Now()
		d, err := startDaemon(exe, gctrace)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		wc := newClient(d.addr)
		r := wc.run(&warm)
		wc.http.CloseIdleConnections()
		id := log.add(0, "setup", "", t0, r.result)
		log.add(id, "daemon.start", "", t0, t1)
		addJobSpans(&log, id, "warmup", &r)
		setup = append(setup, r.result.Sub(t0).Seconds())
		warmRuns = append(warmRuns, r)
		return d, nil
	}
	sample := func() error {
		d, err := startWarm(false)
		if err != nil {
			return err
		}
		return d.stop()
	}
	for i := 0; i < setupBefore-1; i++ {
		if err := sample(); err != nil {
			return report{}, err
		}
	}
	d, err := startWarm(cfg.trace)
	if err != nil {
		return report{}, err
	}
	defer func() {
		if d != nil {
			_ = d.stop() // error path: the run already failed
		}
	}()

	c := newClient(d.addr)
	cpu0, err := d.cpu()
	if err != nil {
		return report{}, err
	}
	start := time.Now()
	runs := runLoop(c, jobs)
	end := time.Now()
	cpu1, err := d.cpu()
	if err != nil {
		return report{}, err
	}
	peakKB, err := peakRSSKB(d.pid())
	if err != nil {
		return report{}, err
	}
	var svc struct {
		RejectedQueueFull int64 `json:"rejected_queue_full"`
	}
	resp, err := c.http.Get(c.base + "/debug/metrics")
	if err != nil {
		return report{}, err
	}
	err = json.NewDecoder(resp.Body).Decode(&svc)
	resp.Body.Close()
	if err != nil {
		return report{}, fmt.Errorf("debug/metrics: %w", err)
	}
	c.http.CloseIdleConnections()
	err = d.stop()
	dlog := d.log
	d = nil
	if err != nil {
		return report{}, fmt.Errorf("sadpd: %w; stderr: %s", err, dlog.text())
	}
	for i := 0; i < setupAfter; i++ {
		if err := sample(); err != nil {
			return report{}, err
		}
	}

	// Verify every result, warm-ups included.
	rep := report{Correct: true}
	var (
		routed     int
		nets       int64
		overlay    float64
		counters   = map[string]int64{}
		unaccount  int64
		lat        []float64
		sub, wait  []float64
		runS, resS []float64
		kb         []float64
		traceEv    int
	)
	tally := func(v verdict) {
		rep.Attempted++
		if v.failed {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", v.problems)
		}
		if v.silent {
			rep.Correct = false
		}
	}
	// The run's fingerprint covers the warm-up result, which every daemon
	// of the run must repeat, and every job result.
	h := sha256.New()
	var warmPrint string
	for i := range warmRuns {
		v, res := jobVerdict(&warm, &warmRuns[i])
		tally(v)
		p := resultPrint(res)
		if i == 0 {
			warmPrint = p
			io.WriteString(h, p)
		} else if p != warmPrint {
			fmt.Fprintf(os.Stderr, "perfbench: determinism: warm-up result of daemon %d differs from daemon 1\n", i+1)
			rep.Correct = false
		}
	}
	loopID := log.add(0, "loop", "", start, end)
	for i := range runs {
		r := &runs[i]
		addJobSpans(&log, loopID, jobs[i].name, r)
		v, res := jobVerdict(&jobs[i], r)
		tally(v)
		io.WriteString(h, resultPrint(res))
		lat = append(lat, r.latency())
		if r.err != nil || res == nil {
			continue
		}
		sub = append(sub, r.ack.Sub(r.submit).Seconds())
		wait = append(wait, r.firstTrace.Sub(r.ack).Seconds())
		runS = append(runS, r.end.Sub(r.firstTrace).Seconds())
		resS = append(resS, r.result.Sub(r.end).Seconds())
		kb = append(kb, float64(len(r.body))/1024)
		traceEv += r.traceEvents
		routed += v.routed
		nets += int64(len(jobs[i].nl.Nets))
		overlay += res.Summary.SideOverlayUnits
		unaccount += int64(res.Summary.Nets - res.Summary.Routed - res.Summary.Failed)
		for name, x := range res.Counters {
			counters[name] += x
		}
	}
	bodies := [][]byte{warm.body}
	for i := range jobs {
		bodies = append(bodies, jobs[i].body)
	}
	det, err := checkDeterminism(cfg, inputsKey(bodies), []string{hex.EncodeToString(h.Sum(nil))})
	if err != nil {
		return report{}, err
	}
	rep.Correct = rep.Correct && det

	solve := end.Sub(start).Seconds()
	v := values{}
	v["setup_s"] = median(setup)
	v["solve_s"] = solve
	v["cpu_s"] = cpu1 - cpu0
	v["peak_rss_mb"] = float64(peakKB) * 1024 / 1e6
	v["routed_pct"] = 100 * ratio(float64(routed), float64(nets))
	v["overlay_units"] = overlay
	v["jobs_per_s"] = float64(len(jobs)) / solve
	v["job_p50_s"] = quantile(lat, 0.5)
	v["job_p90_s"] = quantile(lat, 0.9)
	fmt.Printf("served: %d jobs, %d latency samples (%d beyond job_p90_s), %d failed of %d attempted\n",
		len(jobs), len(lat), len(lat)-int(0.9*float64(len(lat))), rep.Failed, rep.Attempted)

	if cfg.trace {
		gcs, alloc := gcWork(dlog.snapshot(), start, end)
		v["netlist.read_s"] = readJobs(jobs)
		v["serve.submit_s"] = median(sub)
		v["serve.queue_wait_s"] = median(wait)
		v["serve.run_s"] = median(runS)
		v["serve.result_s"] = median(resS)
		v["serve.result_kb"] = median(kb)
		v["serve.trace_events"] = float64(traceEv)
		v["serve.rejected_queue_full"] = float64(svc.RejectedQueueFull)
		v["go.gc_cycles"] = float64(gcs)
		v["go.alloc_mb"] = alloc
		v["harness.self_s"] = log.selfTime(loopID)
		v["trace.solve_s"] = solve
		addCounters(v, counters, nets, unaccount)
		if err := log.write(cfg.buildDir("spans-served.jsonl")); err != nil {
			return report{}, err
		}
	}
	if rep.Metrics, err = cat.build(cfg.trace, v); err != nil {
		return report{}, err
	}
	return rep, nil
}

// addJobSpans records one job's client-side spans under parent.
func addJobSpans(log *spanLog, parent int, name string, r *jobRun) {
	if r.err != nil {
		return
	}
	id := log.add(parent, "job", name, r.submit, r.result)
	log.add(id, "serve.submit", name, r.submit, r.ack)
	log.add(id, "serve.queue_wait", name, r.ack, r.firstTrace)
	log.add(id, "serve.run", name, r.firstTrace, r.end)
	log.add(id, "serve.result", name, r.end, r.result)
}

// resultPrint is the deterministic identity of one job's result: its
// canonical result text, which carries the summary, every path and color,
// and the job's counters.
func resultPrint(res *serve.Result) string {
	if res == nil {
		return "none\n"
	}
	sum := sha256.Sum256([]byte(res.ResultText))
	return hex.EncodeToString(sum[:]) + "\n"
}

// readJobs times netlist.Read over every job's netlist file, the parse a
// run makes the daemon do, as the median of five repetitions.
func readJobs(jobs []servedJob) float64 {
	var reps []float64
	for k := 0; k < 5; k++ {
		var s float64
		for i := range jobs {
			t0 := time.Now()
			_, err := netlist.Read(bytes.NewReader(jobs[i].text))
			s += since(t0)
			if err != nil {
				return 0
			}
		}
		reps = append(reps, s)
	}
	return median(reps)
}

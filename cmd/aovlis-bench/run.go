package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"aovlis"
)

// env is what every run of one invocation shares.
type env struct {
	binDir string // built aovlisd, aovlisr
	tmp    string // parent of every run's temp dir, inside the checkout
	// traceDir receives trace_<workload>.json: the -out file's directory,
	// or the checkout's build directory.
	traceDir string
}

// fixture is one workload's running system: the trained model on disk, the
// server processes, and one warmed connection per channel.
type fixture struct {
	dir   string
	model string
	procs []*proc
	// entry is the server clients talk to; nodes are the scoring daemons
	// (entry is the only one, except on the fleet mix, where it is the
	// router).
	entry  *proc
	nodes  []*proc
	client *http.Client
	runs   []*channelRun
	epoch  time.Time

	stop chan struct{}
	// mu guards procs and runs against fail, which may run at any moment.
	mu       sync.Mutex
	failOnce sync.Once
	failErr  error
	failed   chan struct{} // closed once failErr is set
}

// fail records the root cause of a broken run and unblocks everything
// waiting on the servers.
func (f *fixture) fail(err error) {
	f.failOnce.Do(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.failErr = err
		close(f.failed)
		for _, r := range f.runs {
			r.c.close()
		}
		for _, p := range f.procs {
			p.cmd.Process.Kill()
		}
	})
}

// cause prefers the root cause (a dead child, an interrupt) over the I/O
// error it surfaced as. A dying child shows first as a broken connection,
// a moment before its Wait returns, so an error waits that moment.
func (f *fixture) cause(err error) error {
	if err == nil {
		return nil
	}
	select {
	case <-f.failed:
		return f.failErr
	case <-time.After(500 * time.Millisecond):
		return err
	}
}

// teardown stops every process, waits for each, and removes the temp dir.
// It runs on every exit path.
func (f *fixture) teardown() {
	close(f.stop)
	for _, r := range f.runs {
		r.c.close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, p := range f.procs {
		p.kill()
	}
	os.RemoveAll(f.dir)
}

// start launches one server and watches it: a child that ends before
// teardown fails the run with its stderr tail.
func (f *fixture) start(bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	p, err := spawn(bin, port, args...)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	go func() {
		select {
		case <-p.done:
			select {
			case <-f.stop:
			default:
				f.fail(p.diedErr())
			}
		case <-f.stop:
		}
	}()
	return p, nil
}

// setUp builds the common fixture and reports how long it took:
// dataset.Build → aovlis.Train → Save → spawn servers with -load →
// /healthz OK → every channel attached and its set-up segments (the q
// warm-up segments, plus a workload's preamble) acknowledged.
func setUp(ctx context.Context, e env, in *inputs, seed int64) (f *fixture, elapsed time.Duration, err error) {
	w := in.w
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	f = &fixture{dir: dir, model: filepath.Join(dir, "model.bin"),
		stop: make(chan struct{}), failed: make(chan struct{}), epoch: t0}
	go func() {
		select {
		case <-ctx.Done():
			f.fail(ctx.Err())
		case <-f.stop:
		}
	}()
	defer func() {
		if err != nil {
			err = f.cause(err)
			f.teardown()
			f = nil
		}
	}()

	ds, err := buildDataset(seed)
	if err != nil {
		return f, 0, err
	}
	if err = trainModel(ds, w.mix == drift, seed, f.model); err != nil {
		return f, 0, err
	}

	var spec []string
	for i := 0; i < w.nodes(); i++ {
		id := fmt.Sprintf("n%d", i)
		p, err := f.start(filepath.Join(e.binDir, "aovlisd"), w.daemonArgs(f.model, id, dir)...)
		if err != nil {
			return f, 0, err
		}
		f.nodes = append(f.nodes, p)
		spec = append(spec, id+"="+p.url)
	}
	f.entry = f.nodes[0]
	if w.mix == fleet {
		if f.entry, err = f.start(filepath.Join(e.binDir, "aovlisr"), "-nodes", strings.Join(spec, ","), "-window", "32"); err != nil {
			return f, 0, err
		}
	}
	for _, p := range f.procs {
		if err = p.waitHealthy(ctx); err != nil {
			return f, 0, err
		}
	}

	// The transport's default 4 KiB buffers would cut every flushed batch of
	// observations into a dozen write calls; the generator shares the box
	// with the servers and should spend as little of it as it can.
	f.client = &http.Client{Transport: &http.Transport{DisableCompression: true,
		WriteBufferSize: 64 << 10, ReadBufferSize: 64 << 10}}
	for c := 0; c < w.channels; c++ {
		var cn conn
		if w.mix == durableLive {
			cn, err = dialWS(f.entry.url + "/live/" + channelName(c))
		} else {
			cn, err = dialNDJSON(f.client, f.entry.url+"/channels/"+channelName(c)+"/observe")
		}
		if err != nil {
			return f, 0, err
		}
		r := newChannelRun(c, cn, in, f.epoch)
		f.mu.Lock()
		f.runs = append(f.runs, r)
		f.mu.Unlock()
		// Channels attach one after the other: the router's bounded-load
		// placement depends on arrival order, and racing connections would
		// split the fleet's Zipf shares over its nodes differently run by run.
		if err = r.closedLoop(0, 1); err == nil {
			err = r.await(1)
		}
		if err != nil {
			return f, 0, err
		}
	}
	err = eachChannel(f.runs, func(r *channelRun) error {
		if err := r.closedLoop(1, in.plan.setup[r.id]); err != nil {
			return err
		}
		return r.await(in.plan.setup[r.id])
	})
	return f, time.Since(t0), err
}

// sumProcs adds one /proc figure over every server process.
func (f *fixture) sumProcs(figure func(*proc) (float64, error)) (float64, error) {
	var total float64
	for _, p := range f.procs {
		v, err := figure(p)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// selfCPU is this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pacedResult is what the open-loop phase measured.
type pacedResult struct {
	latencyMs []float64 // sorted: scheduled send → decision parsed
	lateMs    []float64 // sorted: scheduled send → actual send
	// slices holds the same latencies by the pacedSlice of the phase their
	// segment was scheduled in, each slice sorted.
	slices [][]float64
}

// pacedSlice is the length of one slice of the paced phase. The host this
// runs on stalls or slows for a second or so at a time; a quantile over the
// whole phase carries every such stretch, the median over the slices of each
// slice's quantile carries none shorter than half the phase.
const pacedSlice = time.Second

// sliceQuantile is the median over the phase's slices of each slice's
// q-quantile.
func (p pacedResult) sliceQuantile(q float64) float64 {
	qs := make([]float64, len(p.slices))
	for i, s := range p.slices {
		qs[i] = quantile(s, q)
	}
	return median(qs)
}

// paced drives the open-loop phase: every channel sends on its own fixed
// schedule, channels staggered evenly inside one aggregate period.
func (f *fixture) paced(in *inputs) (pacedResult, error) {
	t0 := time.Now().Add(20 * time.Millisecond)
	period := time.Duration(float64(time.Second) / float64(in.w.pacedRate))
	err := eachChannel(f.runs, func(r *channelRun) error {
		from := in.plan.setup[r.id]
		if err := r.openLoop(from, from+in.plan.paced[r.id], t0, time.Duration(r.id)*period, in.plan.rate[r.id]); err != nil {
			return err
		}
		return r.await(from + in.plan.paced[r.id])
	})
	if err != nil {
		return pacedResult{}, f.cause(err)
	}
	// Whole slices only: what is left of the phase past the last whole one
	// joins it.
	var length time.Duration
	for c, n := range in.plan.paced {
		length = max(length, time.Duration(float64(n)/in.plan.rate[c]*float64(time.Second)))
	}
	res := pacedResult{slices: make([][]float64, max(1, int(length/pacedSlice)))}
	start := int64(t0.Sub(f.epoch))
	for _, r := range f.runs {
		from := in.plan.setup[r.id]
		for k := from; k < from+in.plan.paced[r.id]; k++ {
			ms := float64(r.recvAt[k]-r.due[k]) / 1e6
			res.latencyMs = append(res.latencyMs, ms)
			res.lateMs = append(res.lateMs, float64(r.sentAt[k]-r.due[k])/1e6)
			i := min(int((r.due[k]-start)/int64(pacedSlice)), len(res.slices)-1)
			res.slices[i] = append(res.slices[i], ms)
		}
	}
	res.latencyMs, res.lateMs = sortedCopy(res.latencyMs), sortedCopy(res.lateMs)
	for i, s := range res.slices {
		res.slices[i] = sortedCopy(s)
	}
	return res, nil
}

// saturateResult is what the closed-loop phase measured: the median over
// the phase's slices of each slice's throughput and server CPU cost.
type saturateResult struct {
	segPerSec   float64
	cpuMsPerSeg float64
}

// sliceEvery is the length of one slice of the saturate phase. The host
// this runs on slows by a fifth or more for a second or a few at a time;
// a total over the phase carries every such stretch, the median slice
// carries none shorter than half the phase. Over 6 s windows of one
// single-threaded loop on the box the benchmark was sized on, the mean moved
// 9 % of its median between the quartiles, the median of 0.25 s slices 5 %.
const sliceEvery = 250 * time.Millisecond

// sample is the state of the saturate phase at one instant.
type sample struct {
	at      time.Duration // since the fixture's epoch
	decided int64         // decisions parsed, all channels
	cpuMs   float64       // user + system CPU of all server processes
}

func (f *fixture) sample(at time.Duration) (sample, error) {
	s := sample{at: at}
	for _, r := range f.runs {
		s.decided += r.got.Load()
	}
	var err error
	s.cpuMs, err = f.sumProcs((*proc).cpuMillis)
	return s, err
}

// saturate drives the closed-loop phase: every channel keeps clientWindow
// segments unacknowledged until its count is sent. The drift mix is one
// slice: a retrain holds its shard for most of a second, a slice has to hold
// whole retrain cycles to mean anything, and the phase is cut to do so.
func (f *fixture) saturate(in *inputs) (saturateResult, error) {
	first, err := f.sample(time.Since(f.epoch))
	if err != nil {
		return saturateResult{}, err
	}
	samples := []sample{first}
	var sampleErr error
	done, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		if in.w.mix == drift {
			return
		}
		tick := time.NewTicker(sliceEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s, err := f.sample(time.Since(f.epoch))
				if err != nil {
					sampleErr = err
					return
				}
				samples = append(samples, s)
			case <-done:
				return
			}
		}
	}()
	err = eachChannel(f.runs, func(r *channelRun) error {
		from := in.plan.setup[r.id] + in.plan.paced[r.id]
		if err := r.closedLoop(from, in.plan.total(r.id)); err != nil {
			return err
		}
		return r.await(in.plan.total(r.id))
	})
	close(done)
	<-sampled
	if err != nil {
		return saturateResult{}, f.cause(err)
	}
	if sampleErr != nil {
		return saturateResult{}, sampleErr
	}
	// The phase ends with the last decision, not with the moment this
	// goroutine learnt of it.
	var end int64
	for _, r := range f.runs {
		end = max(end, r.recvAt[in.plan.total(r.id)-1])
	}
	last, err := f.sample(time.Duration(end))
	if err != nil {
		return saturateResult{}, err
	}
	// A last slice shorter than half a slice joins the one before it.
	if n := len(samples); n > 1 && last.at-samples[n-1].at < sliceEvery/2 {
		samples = samples[:n-1]
	}
	samples = append(samples, last)
	var rates, costs []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		rates = append(rates, float64(b.decided-a.decided)/(b.at-a.at).Seconds())
		if b.decided > a.decided { // a slice that decided nothing has no cost per segment
			costs = append(costs, (b.cpuMs-a.cpuMs)/float64(b.decided-a.decided))
		}
	}
	return saturateResult{segPerSec: median(rates), cpuMsPerSeg: median(costs)}, nil
}

// verdicts is the oracle's judgement of one run.
type verdicts struct {
	attempted, failed int
	// first holds the first few mismatches, for the operator.
	first []string
}

// check compares every decision of every channel with the reference.
func (f *fixture) check(in *inputs, want [][]aovlis.Result) verdicts {
	var v verdicts
	for _, r := range f.runs {
		for k := range want[r.id] {
			wantSeq := uint64(k)
			if in.w.mix == durableLive {
				wantSeq++ // the live plane numbers decisions from 1
			}
			v.attempted++
			if verdictMatches(&r.dec[k], wantSeq, want[r.id][k]) {
				continue
			}
			v.failed++
			if len(v.first) < 3 {
				v.first = append(v.first, fmt.Sprintf("channel %d segment %d: got %+v, want seq %d %+v",
					r.id, k, r.dec[k], wantSeq, want[r.id][k]))
			}
		}
	}
	return v
}

// rssPeakMB sums VmHWM over every server process.
func (f *fixture) rssPeakMB() (float64, error) { return f.sumProcs((*proc).rssPeakMB) }

func (f *fixture) commandLines() []string {
	var out []string
	for _, p := range f.procs {
		out = append(out, p.commandLine())
	}
	return out
}

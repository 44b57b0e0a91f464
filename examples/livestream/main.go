// Livestream: drive the live WebSocket plane end-to-end — the connector
// workflow a real dashboard or broadcast tool would use against aovlisd.
//
// One detector is trained on a normal INF stream and handed to node.Open —
// the node aovlisd runs — which clones it per channel on first contact.
// The node's handler is mounted on a real listener: /live/{channel}
// upgrades to RFC 6455 WebSocket and scores each observation through the
// pool's zero-alloc submit path, /watch streams every verdict as
// server-sent events. Each channel then streams its own synthetic live feed over a
// WebSocket connection; one channel deliberately drops its connection
// mid-stream and resumes with Last-Seq against the advertised
// X-Aovlis-Resume floor, exercising the reconnect contract. The whole
// run is -race clean:
//
//	go run -race ./examples/livestream
//	go run ./examples/livestream -channels 16 -shards 8
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/stream"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/synth"
	"aovlis/internal/wire"
)

func main() {
	var (
		channels  = flag.Int("channels", 8, "number of concurrent live channels")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "detector pool shards")
		trainSec  = flag.Int("train-sec", 240, "training stream length (seconds)")
		streamSec = flag.Int("stream-sec", 45, "per-channel monitored stream length (seconds)")
		classes   = flag.Int("classes", 24, "action feature classes (d1)")
		epochs    = flag.Int("epochs", 3, "training epochs")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if err := run(*channels, *shards, *trainSec, *streamSec, *classes, *epochs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "livestream:", err)
		os.Exit(1)
	}
}

// channelReport is one channel goroutine's summary.
type channelReport struct {
	id        string
	segments  int
	anomalies int
	resumes   int
	err       error
}

func run(channels, shards, trainSec, streamSec, classes, epochs int, seed int64) error {
	// 1. Train the template detector on a normal stream; the fitted feature
	//    pipeline (I3D projection + frozen count normalisation) is shared
	//    by every channel's ingest.
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = trainSec, 64
	dcfg.Classes = classes
	dcfg.Seed = seed
	fmt.Printf("training template on a %ds normal INF stream...\n", trainSec)
	ds, err := dataset.Build(dcfg)
	if err != nil {
		return err
	}
	cfg := aovlis.DefaultConfig(classes, dcfg.Audience.Dim())
	cfg.Epochs = epochs
	cfg.Seed = seed
	template, err := aovlis.Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("template ready: %d parameters, τ = %.4f\n", template.Model().NumParams(), template.Tau())

	// 2. The node: the assembly the daemon serves, on a real listener.
	//    Channels attach on first WebSocket contact.
	n, err := node.Open(template, node.Config{MaxChannels: channels,
		Pool: serve.Config{Shards: shards, QueueDepth: 256, Batch: 16}})
	if err != nil {
		return err
	}
	defer n.Close()
	ln, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &wire.Server{Handler: n.Handler()}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr()
	fmt.Printf("live plane on %s (/live/{channel} WebSocket, /watch SSE)\n", base)

	// 3. A dashboard: one SSE subscriber counting every verdict the fleet
	//    of connections produces.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	watched := make(chan int, 1)
	go func() { watched <- watchVerdicts(watchCtx, base) }()

	// 4. Every channel streams its own synthetic feed over WebSocket,
	//    concurrently; the first channel drops mid-stream and resumes.
	fmt.Printf("streaming %d channels (%ds each) over WebSocket across %d shards...\n", channels, streamSec, shards)
	start := time.Now()
	reports := make([]channelReport, channels)
	var wg sync.WaitGroup
	for i := 0; i < channels; i++ {
		id := fmt.Sprintf("stream-%02d", i)
		obs, err := channelObservations(ds, streamSec, seed+1000+int64(i))
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		wg.Add(1)
		go func(i int, id string, obs []serve.Observation) {
			defer wg.Done()
			reports[i] = streamChannel(base, id, obs, i == 0)
		}(i, id, obs)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// 5. Teardown in the daemon's order: Drain ends the dashboard stream, so
	//    the watcher can report; the deferred calls then stop the listener
	//    and close the node.
	n.Drain()
	dashboard := <-watched

	totalSegments, totalAnomalies, totalResumes := 0, 0, 0
	for _, r := range reports {
		if r.err != nil {
			return fmt.Errorf("%s: %w", r.id, r.err)
		}
		totalSegments += r.segments
		totalAnomalies += r.anomalies
		totalResumes += r.resumes
	}
	ps := n.Pool().PoolStats()
	fmt.Printf("done in %.1fs: %d channels over WebSocket, %d segments scored (%.0f segments/s), %d flagged\n",
		elapsed.Seconds(), channels, totalSegments, float64(totalSegments)/elapsed.Seconds(), totalAnomalies)
	fmt.Printf("resumed %d dropped connection(s) via Last-Seq; dashboard saw %d verdict events; pool observed %d\n",
		totalResumes, dashboard, ps.Observed)
	return nil
}

// channelObservations renders one channel's synthetic live feed through
// the online ingest (frames and chat interleaved in delivery order) into
// the observation list its WebSocket connection will stream.
func channelObservations(ds *dataset.Dataset, streamSec int, seed int64) ([]serve.Observation, error) {
	st, err := synth.Generate(synth.Options{Preset: ds.Config.Preset, DurationSec: streamSec, Seed: seed})
	if err != nil {
		return nil, err
	}
	in, err := serve.NewIngest(ds.Pipeline, stream.Segmenter{})
	if err != nil {
		return nil, err
	}
	var out []serve.Observation
	ci := 0
	for _, f := range st.Frames {
		frameEnd := float64(f.Index+1) / float64(st.FPS)
		for ci < len(st.Comments) && st.Comments[ci].AtSec < frameEnd {
			in.PushComment(st.Comments[ci])
			ci++
		}
		obs, err := in.PushFrame(f)
		if err != nil {
			return nil, err
		}
		out = append(out, obs...)
	}
	obs, err := in.Flush()
	if err != nil {
		return nil, err
	}
	return append(out, obs...), nil
}

// streamChannel runs one channel's live session. With demoResume it tears
// the connection down halfway and reconnects with Last-Seq, picking up
// from the server's advertised floor — the lossless-reconnect contract.
func streamChannel(base, id string, obs []serve.Observation, demoResume bool) channelReport {
	rep := channelReport{id: id}
	total := uint64(len(obs))
	cut := total
	if demoResume && total > 4 {
		cut = total / 2
	}
	last, anomalies, err := streamLeg(base, id, obs, 0, cut)
	rep.anomalies += anomalies
	if err != nil {
		rep.err = err
		return rep
	}
	if cut < total {
		rep.resumes++
		last, anomalies, err = streamLeg(base, id, obs, last, total)
		rep.anomalies += anomalies
		if err != nil {
			rep.err = err
			return rep
		}
	}
	rep.segments = int(last)
	return rep
}

// streamLeg opens one WebSocket connection resuming at lastSeq, streams
// observations from the advertised floor, and reads decisions until seq
// reaches until. Returns the highest seq seen and the anomaly count.
func streamLeg(base, id string, obs []serve.Observation, lastSeq, until uint64) (uint64, int, error) {
	hdr := wire.Header{}
	if lastSeq > 0 {
		hdr.Set(liveplane.LastSeqHeader, strconv.FormatUint(lastSeq, 10))
	}
	conn, resp, err := liveplane.Dial(base+"/live/"+id, hdr)
	// A reconnect can race the server noticing the previous connection is
	// gone (it frees the channel when its read loop sees the close), so a
	// brief 409 is expected; retry like a real client would.
	for attempt := 0; err != nil && resp != nil && resp.StatusCode == wire.StatusConflict && attempt < 100; attempt++ {
		time.Sleep(10 * time.Millisecond)
		conn, resp, err = liveplane.Dial(base+"/live/"+id, hdr)
	}
	if err != nil {
		return lastSeq, 0, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	floor, err := strconv.ParseUint(resp.Header.Get(liveplane.ResumeHeader), 10, 64)
	if err != nil {
		return lastSeq, 0, fmt.Errorf("bad resume floor %q", resp.Header.Get(liveplane.ResumeHeader))
	}

	// Writer: everything at or below the floor is already accepted
	// server-side; resend only from there.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b []byte
		for i := floor; i < uint64(len(obs)); i++ {
			b = wire.AppendObservation(b[:0], obs[i].Action, obs[i].Audience)
			if conn.WriteMessage(liveplane.OpText, b[:len(b)-1]) != nil {
				return // connection closed under us (the resume demo's cut)
			}
		}
	}()

	last, anomalies := lastSeq, 0
	for last < until {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		op, msg, err := conn.ReadMessage()
		if err != nil {
			conn.Close()
			<-done
			return last, anomalies, fmt.Errorf("read after seq %d: %w", last, err)
		}
		if op != liveplane.OpText {
			continue
		}
		var dec wire.Decision
		if err := wire.DecodeDecision(msg, &dec); err != nil {
			conn.Close()
			<-done
			return last, anomalies, fmt.Errorf("bad decision %q: %w", msg, err)
		}
		if dec.Seq > last {
			last = dec.Seq
		}
		if dec.Anomaly && !dec.Warmup {
			anomalies++
		}
	}
	conn.Close() // unblocks the writer if the leg stopped early (resume cut)
	<-done
	return last, anomalies, nil
}

// watchVerdicts subscribes to the SSE dashboard and counts verdict events
// until the stream ends (the node draining) or the context is cancelled.
func watchVerdicts(ctx context.Context, base string) int {
	req, err := wire.NewRequest(wire.MethodGet, base+"/watch", nil)
	if err != nil {
		return 0
	}
	resp, err := wire.Do(ctx, nil, req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != wire.StatusOK {
		return 0
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: verdict") {
			n++
		}
	}
	return n
}

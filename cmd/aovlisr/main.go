// Command aovlisr is the AOVLIS fleet router: the scale-out serving tier
// in front of N aovlisd node processes. It consistent-hash-places channels
// across the fleet (bounded-load, so no node carries more than
// cluster.DefaultLoadFactor times its fair share), forwards NDJSON observe
// streams to each channel's owner on connections of their own, live-migrates
// channels between nodes on POST /cluster/rebalance, and fails a dead node's
// channels over onto survivors — warm-restoring each from the node's last
// checkpoint when its -snapshot-dir is shared with the router, then
// replaying the node's ingest journal tail when its -wal-dir is shared
// too, so failed-over channels resume bit-equal to an undisturbed run.
//
// Clients speak the exact aovlisd channel API to the router; the fleet is
// invisible to them:
//
//	aovlisr -addr :7600 -nodes "a=http://127.0.0.1:7601=/shared/a,b=http://127.0.0.1:7602=/shared/b"
//	curl -N -X POST --data-binary @segments.ndjson http://127.0.0.1:7600/channels/alice/observe
//
// The live plane rides the same placement: GET /live/{channel} tunnels
// the WebSocket upgrade to the channel's owner as a raw byte splice (the
// Last-Seq/X-Aovlis-Resume resume contract passes through end to end),
// and GET /watch fans the alive nodes' SSE verdict streams into one
// merged dashboard feed with node-namespaced event ids.
//
// Admin surface: GET /cluster/nodes (fleet health), GET
// /cluster/place?channel=X (ownership lookup), POST /cluster/rebalance
// (canonical re-placement), GET /healthz, GET /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aovlis/internal/cluster"
	"aovlis/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":7600", "router listen address, host:port; the host is an IP literal, a name in /etc/hosts, or empty for every interface")
		nodes      = flag.String("nodes", "", "fleet spec: name=url[=snapshotdir[=waldir]],... — each url's host is an IP literal or a name in /etc/hosts; the name must match each node's -node-id; the optional snapshotdir is that node's -snapshot-dir as visible to the router, enabling warm failover; the optional waldir is its -wal-dir, enabling journal-tail replay (bit-equal failover)")
		window     = flag.Int("window", 32, "per-stream pipelining depth: unacknowledged segments in flight per observe stream (also bounds segments queued at the router across a failover)")
		probeEvery = flag.Duration("probe-every", 500*time.Millisecond, "health-probe period")
		failAfter  = flag.Int("fail-after", 3, "consecutive probe failures that declare a node dead and trigger failover")
		failWait   = flag.Duration("failover-wait", 15*time.Second, "how long a stream keeps unacknowledged segments queued waiting for a new owner before answering them with error lines")
	)
	flag.Parse()
	if err := run(*addr, *nodes, *window, *probeEvery, *failAfter, *failWait); err != nil {
		fmt.Fprintln(os.Stderr, "aovlisr:", err)
		os.Exit(1)
	}
}

func run(addr, nodes string, window int, probeEvery time.Duration, failAfter int, failWait time.Duration) error {
	if nodes == "" {
		return fmt.Errorf("-nodes is required (name=url[=snapshotdir[=waldir]],...)")
	}
	specs, err := cluster.ParseNodeSpecs(nodes)
	if err != nil {
		return err
	}
	// Every node's host must resolve now: there is no DNS behind it, and a
	// name that fails at the first stream would fail at every one.
	for _, s := range specs {
		u, err := url.Parse(s.URL)
		if err == nil {
			_, err = wire.LookupHost(u.Hostname())
		}
		if err != nil {
			return fmt.Errorf("-nodes: node %s: %w", s.Name, err)
		}
	}
	// Bind before the router starts probing or announces anything.
	l, err := wire.Listen(addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	defer l.Close()
	r, err := cluster.New(cluster.Config{
		Nodes:        specs,
		Window:       window,
		ProbeEvery:   probeEvery,
		FailAfter:    failAfter,
		FailoverWait: failWait,
	})
	if err != nil {
		return err
	}
	r.Start()
	defer r.Close()

	srv := &wire.Server{Handler: r.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	fmt.Printf("aovlisr routing %d nodes on %s (vnodes %d, load factor %.2f)\n",
		len(specs), l.Addr(), cluster.DefaultReplicas, cluster.DefaultLoadFactor)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("aovlisr: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shCtx)
}

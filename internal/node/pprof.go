package node

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"aovlis/internal/wire"
)

// handlePprof serves /debug/pprof/ from runtime/pprof and runtime/trace,
// at net/http/pprof's paths:
//
//   - /debug/pprof/ lists the profiles;
//   - /debug/pprof/{name}[?debug=N][&gc=1] writes a runtime/pprof profile
//     (heap, allocs, goroutine, block, mutex, threadcreate) — gzipped
//     protobuf, or text for debug > 0; gc=1 collects first;
//   - /debug/pprof/profile?seconds=N is an N-second CPU profile;
//   - /debug/pprof/trace?seconds=N is an N-second execution trace;
//   - /debug/pprof/cmdline is the command line, NUL-separated.
//
// net/http/pprof's /symbol and its delta profiles (?seconds= on any other
// profile) are not served: profiles carry their symbols, and a delta is
// two captures apart.
func handlePprof(w wire.ResponseWriter, r *wire.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/")
	q := r.URL.Query()
	switch name {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "profiles: cmdline profile trace")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%d\t%s\n", p.Count(), p.Name())
		}
		return
	case "cmdline":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, strings.Join(os.Args, "\x00"))
		return
	case "profile", "trace":
		sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
		if err != nil || sec <= 0 {
			sec = 30
		}
		start, stop := pprof.StartCPUProfile, pprof.StopCPUProfile
		if name == "trace" {
			start, stop = trace.Start, trace.Stop
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
		if err := start(w); err != nil {
			wire.Error(w, "could not enable "+name+": "+err.Error(), wire.StatusInternalError)
			return
		}
		select {
		case <-time.After(time.Duration(sec * float64(time.Second))):
		case <-r.Context().Done():
		}
		stop()
		return
	}
	p := pprof.Lookup(name)
	switch {
	case p == nil:
		wire.Error(w, "unknown profile", wire.StatusNotFound)
		return
	case q.Get("seconds") != "":
		wire.Error(w, "delta profiles are not served", wire.StatusBadRequest)
		return
	}
	if q.Get("gc") != "" {
		runtime.GC()
	}
	debug, _ := strconv.Atoi(q.Get("debug"))
	if debug > 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="`+name+`"`)
	}
	p.WriteTo(w, debug)
}

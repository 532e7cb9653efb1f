package main

import (
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// This file folds runtime/pprof CPU profiles into per-layer self time. It
// reads them through `go tool pprof -traces`, which prints every sample
// between separator lines: its labels ("key:  value"), then its frames,
// leaf first, the leaf after the sample's value.

// hostLayers are the simulator's packages the traced run attributes host
// CPU to, by the package of each sample's leaf frame. Go runtime frames
// fold into "runtime"; everything else (other internal packages, the
// standard library, this benchmark) into "other".
var hostLayers = []string{
	"ddc", "mem", "coldb", "tpch", "graph", "mapreduce", "profile",
	"netmodel", "fault", "core", "sim", "bench", "runtime", "other",
}

// Frames that split a cluster op's samples into set-up and simulation: the
// op's own goroutine is under runClusterFrame, and while it simulates it is
// also under schedRunFrame.
const (
	runClusterFrame = "teleport/internal/bench.RunCluster"
	schedRunFrame   = "teleport/internal/sim.(*Scheduler).Run"
)

// hostProfile accumulates CPU nanoseconds from one or more profiles.
type hostProfile struct {
	totalNs int64
	layerNs map[string]int64
	// clusterNs is the CPU of samples labelled with the cluster op's
	// simulation phase; clusterSetupNs the part of it not under
	// schedRunFrame.
	clusterNs, clusterSetupNs int64
}

func newHostProfile() *hostProfile {
	return &hostProfile{layerNs: make(map[string]int64, len(hostLayers))}
}

// layerOf maps a Go function symbol to its host layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "teleport/internal/"):
		name := strings.TrimPrefix(pkg, "teleport/internal/")
		for _, l := range hostLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// foldProfiles folds the CPU profiles at paths into one hostProfile.
func foldProfiles(paths []string) (*hostProfile, error) {
	h := newHostProfile()
	if len(paths) == 0 {
		return h, nil
	}
	args := append([]string{"tool", "pprof", "-traces", "-unit=ns"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return h, fmt.Errorf("go tool pprof: %w", err)
	}
	return h, h.addTraces(string(out))
}

// traceSeparator is the line `go tool pprof -traces` puts before each
// sample and after the last.
const traceSeparator = "-----------+-------------------------------------------------------"

// addTraces folds `go tool pprof -traces` output in.
func (h *hostProfile) addTraces(text string) error {
	blocks := strings.Split(text, traceSeparator+"\n")
	for _, b := range blocks[1:] { // blocks[0] is the profile's header
		var (
			ns     int64
			frames []string
			labels = map[string]string{}
		)
		for _, line := range strings.Split(b, "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) == 0:
			case strings.HasSuffix(f[0], ":"):
				labels[strings.TrimSuffix(f[0], ":")] = strings.Join(f[1:], " ")
			case frames == nil:
				d, err := time.ParseDuration(f[0])
				if err != nil || len(f) < 2 {
					return fmt.Errorf("go tool pprof: unexpected trace line %q", line)
				}
				ns, frames = int64(d), []string{f[1]}
			default:
				frames = append(frames, f[0])
			}
		}
		if frames == nil {
			continue // what follows the last separator
		}
		h.totalNs += ns
		h.layerNs[layerOf(frames[0])] += ns
		if labels["op"] == clusterOp && labels["phase"] == "engine" {
			h.clusterNs += ns
			if slices.Contains(frames, runClusterFrame) && !slices.Contains(frames, schedRunFrame) {
				h.clusterSetupNs += ns
			}
		}
	}
	return nil
}

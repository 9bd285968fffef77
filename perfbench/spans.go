package main

import (
	"sort"
)

// Layers a page load's time is split over, outermost first. Each gets
// the self time of its spans: duration minus the part covered by child
// spans, so a load's layer times add up to the load's duration.
const (
	layerProxy      = iota // proxy.Load minus its transport calls
	layerHTTPClient        // transport call minus the edge handler
	layerEdge              // edge handler minus its upstream round trip
	layerUpstream          // edge→server round trip minus the server handler
	layerServer            // httpapi handler
	nLayers
)

var layerNames = [nLayers]string{"proxy", "httpclient", "edge", "upstream", "server"}

var layerOfKind = [nSpanKinds]int{
	spanLoad:     layerProxy,
	spanCall:     layerHTTPClient,
	spanEdge:     layerEdge,
	spanUpstream: layerUpstream,
	spanServer:   layerServer,
}

// traceStats is the per-layer breakdown of a traced run.
type traceStats struct {
	loadDur    []int64
	layerLoad  [nLayers][]int64 // per traced load, that layer's self time (0 if untouched)
	layerTotal [nLayers]int64
	callDur    [nCalls][]int64
	callSelf   []int64
	edgeDur    [nEdge][]int64
	edgeSelf   []int64
	upDur      []int64
	serverDur  [nRoutes][]int64 // page/sketch/blocks: spans of traced loads; write: every write
	writeSelf  []int64          // write handler minus purge fan-out
}

// analyze groups spans by trace and derives every span's self time.
func analyze(spans []span) traceStats {
	var ts traceStats
	byTrace := make(map[uint64][]span)
	for _, s := range spans {
		if s.kind == spanServer && s.sub == routeWrite {
			ts.serverDur[routeWrite] = append(ts.serverDur[routeWrite], s.end-s.start)
			ts.writeSelf = append(ts.writeSelf, s.end-s.start-s.aux)
			continue
		}
		if s.trace != 0 {
			byTrace[s.trace] = append(byTrace[s.trace], s)
		}
	}
	for _, group := range byTrace {
		root := -1
		children := make(map[uint64][]int, len(group))
		for i, s := range group {
			if s.kind == spanLoad {
				root = i
			}
			children[s.parent] = append(children[s.parent], i)
		}
		if root < 0 {
			continue // spans of a load outside the traced slices
		}
		var perLayer [nLayers]int64
		for _, s := range group {
			self := s.end - s.start - covered(s, group, children[s.id])
			perLayer[layerOfKind[s.kind]] += self
			d := s.end - s.start
			switch s.kind {
			case spanCall:
				ts.callDur[s.sub] = append(ts.callDur[s.sub], d)
				ts.callSelf = append(ts.callSelf, self)
			case spanEdge:
				ts.edgeDur[s.sub] = append(ts.edgeDur[s.sub], d)
				ts.edgeSelf = append(ts.edgeSelf, self)
			case spanUpstream:
				ts.upDur = append(ts.upDur, d)
			case spanServer:
				ts.serverDur[s.sub] = append(ts.serverDur[s.sub], d)
			}
		}
		ts.loadDur = append(ts.loadDur, group[root].end-group[root].start)
		for l := range perLayer {
			ts.layerLoad[l] = append(ts.layerLoad[l], perLayer[l])
			ts.layerTotal[l] += perLayer[l]
		}
	}
	return ts
}

// covered is how much of s's interval its children's intervals cover.
func covered(s span, group []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := group[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(i)
	return float64(s[i])*(1-frac) + float64(s[i+1])*frac
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

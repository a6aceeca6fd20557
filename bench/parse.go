package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The benchmark drives the engine only through its two command-line
// programs, so their stdout is the interface it depends on. Everything the
// benchmark needs from a run — the result fingerprint that is checked
// against the oracle, and the counters that say which expansion and spill
// decisions the run took — is parsed here.

// distOut is one ehjadist run as its stdout reports it.
type distOut struct {
	Matches      uint64
	Checksum     uint64
	FinalNodes   int64
	Replications int64
	RelayedMsgs  int64
	HeavyKeys    int64
	Spilled      int64
	SpillKB      int64
	Degraded     bool
}

var (
	distMatchesRE = regexp.MustCompile(`ehjadist: (\d+) matches \(checksum (0x[0-9a-f]+)\) across \d+ worker process\(es\)`)
	distNodesRE   = regexp.MustCompile(`ehjadist: nodes \d+ -> (\d+), splits \d+, replications (\d+)`)
	distRelayRE   = regexp.MustCompile(`coordinator relayed (\d+) worker-to-worker message\(s\)`)
	distHeavyRE   = regexp.MustCompile(`ehjadist: (\d+) heavy key\(s\)`)
	distSpillRE   = regexp.MustCompile(`ehjadist: spilled (\d+) partition\(s\) to disk \((\d+) KB\)`)
)

func parseDist(out string) (distOut, error) {
	var d distOut
	m := distMatchesRE.FindStringSubmatch(out)
	if m == nil {
		return d, fmt.Errorf("ehjadist output has no result line")
	}
	d.Matches = mustUint(m[1])
	d.Checksum = mustUint(m[2])
	m = distNodesRE.FindStringSubmatch(out)
	if m == nil {
		return d, fmt.Errorf("ehjadist output has no nodes line")
	}
	d.FinalNodes, d.Replications = mustInt(m[1]), mustInt(m[2])
	if m := distRelayRE.FindStringSubmatch(out); m != nil {
		d.RelayedMsgs = mustInt(m[1])
	}
	if m := distHeavyRE.FindStringSubmatch(out); m != nil {
		d.HeavyKeys = mustInt(m[1])
	}
	if m := distSpillRE.FindStringSubmatch(out); m != nil {
		d.Spilled, d.SpillKB = mustInt(m[1]), mustInt(m[2])
	}
	d.Degraded = strings.Contains(out, "DEGRADED")
	return d, nil
}

// simOut is one ehjarun run as its stdout reports it. Total is kept as
// printed: the simulator is deterministic, so the text must repeat exactly.
type simOut struct {
	Total      string
	TotalS     float64
	FinalNodes int64
	Matches    uint64
	Messages   int64
	Exhausted  bool
}

var (
	simReportRE = regexp.MustCompile(`(?m)^\S+: total ([0-9.]+)s \(.*\) nodes \d+->(\d+) splits \d+ repl \d+ .* matches (\d+) load`)
	simWireRE   = regexp.MustCompile(`wire: [0-9.]+ MB in (\d+) messages;`)
)

func parseSim(out string) (simOut, error) {
	var s simOut
	m := simReportRE.FindStringSubmatch(out)
	if m == nil {
		return s, fmt.Errorf("ehjarun output has no report line")
	}
	s.Total, s.TotalS = m[1], mustFloat(m[1])
	s.FinalNodes = mustInt(m[2])
	s.Matches = mustUint(m[3])
	if m := simWireRE.FindStringSubmatch(out); m != nil {
		s.Messages = mustInt(m[1])
	}
	s.Exhausted = strings.Contains(out, " EXHAUSTED")
	return s, nil
}

// The must* helpers convert text a regular expression has already
// restricted to digits; a failure is an overflow, reported as zero so the
// oracle comparison that follows fails the run.
func mustUint(s string) uint64 {
	v, _ := strconv.ParseUint(s, 0, 64)
	return v
}

func mustInt(s string) int64 {
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}

func mustFloat(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

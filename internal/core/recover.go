package core

import (
	rt "ehjoin/internal/runtime"
)

// Coordinator crash recovery, core side. The transport (internal/tcpnet)
// write-ahead-logs the coordinator's control plane and replays it into a
// restarted coordinator, but the phase schedule lives here: PrepareResume
// rebuilds the stage for the replay to run through, and ResumeExecute
// walks the same step list on the restored engine, which skips the steps
// — and the injections within the interrupted one — its log already
// absorbed. Actor construction, the kickoff and the step list are pure
// functions of the Config (the determinism the re-stream rung already
// needs), so a replayed log plus "skip what the log already absorbed"
// lands the new process in the old one's state.

// ResumeState is the stage PrepareResume rebuilt: the normalized config,
// one constructed actor per node id, and the build kickoff cloned from the
// initial routing table before any replay. The transport replays its
// checkpoint log through Actors() before ResumeExecute drives the
// remaining phases.
type ResumeState struct{ st *stage }

// Actors returns the full actor set, keyed by node id, for the transport
// to register (locally-hosted ids) and replay through. The scheduler and
// sources are always in the map; join actors are too, so a coordinator
// hosting some join nodes locally restores them the same way.
func (rs *ResumeState) Actors() map[rt.NodeID]rt.Actor {
	actors := make(map[rt.NodeID]rt.Actor, len(rs.st.actors))
	for i, a := range rs.st.actors {
		actors[rs.st.cfg.BaseID+rt.NodeID(i)] = a
	}
	return actors
}

// Config returns the normalized configuration the state was built from.
func (rs *ResumeState) Config() Config { return rs.st.cfg }

// PrepareResume reconstructs the stage Execute builds before its first
// Drain — the same actors and kickoff, from the same config — without
// touching an engine. cfgBlob is the EncodeConfig blob the crashed
// coordinator persisted in its checkpoint header.
func PrepareResume(cfgBlob []byte) (*ResumeState, error) {
	cfg, err := DecodeConfig(cfgBlob)
	if err != nil {
		return nil, err
	}
	st, err := singleStage(cfg)
	if err != nil {
		return nil, err
	}
	return &ResumeState{st}, nil
}

// ResumeExecute continues a crashed run on a restored engine. It walks the
// whole step list; the engine passes the Drains its log completed without
// running them — their effects live in the replayed actors and the
// workers — and discards the injections its log already holds, so nothing
// is delivered twice.
//
// Phase timings in the returned report are measured from the restart, not
// the original start: wall-clock continuity across a crash is not
// reconstructible from the log and the differential oracle compares only
// the join results (Matches, Checksum), which are exact.
func ResumeExecute(rs *ResumeState, eng rt.Engine) (*Report, error) {
	return rs.st.run(eng)
}

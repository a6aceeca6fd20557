package core

import (
	"fmt"

	rt "ehjoin/internal/runtime"
	"ehjoin/internal/wire"
)

// EncodeConfig serialises a Config for shipping to worker processes.
func EncodeConfig(cfg Config) ([]byte, error) {
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return wire.Encode(nil, &n, configFields)
}

// DecodeConfig is the inverse of EncodeConfig.
func DecodeConfig(blob []byte) (Config, error) {
	var cfg Config
	if err := wire.Decode(blob, &cfg, configFields); err != nil {
		return Config{}, fmt.Errorf("core: decode config: %w", err)
	}
	return cfg, nil
}

// JoinNodeIDs returns the node ids of every join node in the configured
// environment; these are the ids a coordinator may assign to worker
// processes (the scheduler and data sources always run in the
// coordinator).
func JoinNodeIDs(cfg Config) ([]rt.NodeID, error) {
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	out := make([]rt.NodeID, n.MaxNodes)
	for i := range out {
		out[i] = n.joinID(i)
	}
	return out, nil
}

// NewJoinActor constructs the join-process actor for the given node id, for
// use by worker processes hosting remote join nodes.
func NewJoinActor(cfg Config, id rt.NodeID) (rt.Actor, error) {
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if !n.isJoinNode(id) {
		return nil, fmt.Errorf("core: node %d is not a join node", id)
	}
	return newJoin(n, id), nil
}

// SchedulerNodeID returns the scheduler's node id in the configured id
// layout, for transports that need to address it (e.g. to deliver failure
// notifications).
func SchedulerNodeID(cfg Config) (rt.NodeID, error) {
	n, err := cfg.normalized()
	if err != nil {
		return rt.NoNode, err
	}
	return n.schedulerID(), nil
}

// NodeDeadMessage builds the failure notification for a join node, for
// injection into the scheduler by an external failure detector (the TCP
// coordinator's heartbeat monitor, or a test harness).
func NodeDeadMessage(node rt.NodeID) rt.Message { return &nodeDead{Node: node} }

// EncodeMultiConfig serialises a MultiConfig for shipping to worker
// processes hosting pipeline join nodes.
func EncodeMultiConfig(mc MultiConfig) ([]byte, error) {
	if _, err := mc.stageConfigs(); err != nil {
		return nil, err
	}
	return wire.Encode(nil, &mc, multiConfigFields)
}

// DecodeMultiConfig is the inverse of EncodeMultiConfig.
func DecodeMultiConfig(blob []byte) (MultiConfig, error) {
	var mc MultiConfig
	if err := wire.Decode(blob, &mc, multiConfigFields); err != nil {
		return MultiConfig{}, fmt.Errorf("core: decode multi config: %w", err)
	}
	return mc, nil
}

// MultiJoinNodeIDs returns the node ids of every join node across every
// pipeline stage — the ids a coordinator may assign to worker processes.
func MultiJoinNodeIDs(mc MultiConfig) ([]rt.NodeID, error) {
	cfgs, err := mc.stageConfigs()
	if err != nil {
		return nil, err
	}
	var out []rt.NodeID
	for _, cfg := range cfgs {
		for i := 0; i < cfg.MaxNodes; i++ {
			out = append(out, cfg.joinID(i))
		}
	}
	return out, nil
}

// NewMultiJoinActor constructs the join actor for a pipeline node id,
// resolving which stage the id belongs to.
func NewMultiJoinActor(mc MultiConfig, id rt.NodeID) (rt.Actor, error) {
	cfgs, err := mc.stageConfigs()
	if err != nil {
		return nil, err
	}
	for _, cfg := range cfgs {
		if cfg.isJoinNode(id) {
			return newJoin(cfg, id), nil
		}
	}
	return nil, fmt.Errorf("core: node %d is not a pipeline join node", id)
}

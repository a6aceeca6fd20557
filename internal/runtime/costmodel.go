package runtime

// CostModel parameterises the emulated cluster: per-port network
// serialisation, per-tuple CPU costs, and local-disk characteristics. The
// simulator consumes the network and disk parts; the actors charge the CPU
// parts through Env.ChargeCPU.
//
// The default, OSUMed, is calibrated to the paper's testbed — 24 Pentium
// III 933 MHz nodes with 512 MB memory and local IDE disks, connected by
// switched 100 Mb/s Ethernet. Absolute figures are approximations of
// 2003-era hardware; the experiments' comparative shapes do not depend on
// their precise values.
type CostModel struct {
	// NetBandwidthBps is the per-port, per-direction network bandwidth in
	// bytes per second (100 Mb/s full duplex = 12.5e6).
	NetBandwidthBps float64
	// NetLatencyNs is the one-way switch latency.
	NetLatencyNs int64
	// MsgOverheadBytes covers per-message framing (headers etc.).
	MsgOverheadBytes int

	// GenNs is the CPU cost for a data source to generate (or read) one
	// tuple and stage it into a chunk buffer.
	GenNs int64
	// BuildNs is the CPU cost to hash and insert one tuple during the
	// table building phase.
	BuildNs int64
	// ProbeNs is the CPU cost to hash and look up one probe tuple.
	ProbeNs int64
	// MatchNs is the additional CPU cost per produced join match.
	MatchNs int64
	// MoveNs is the CPU cost to extract and stage one tuple when a bucket
	// is split or a replicated range is reshuffled.
	MoveNs int64
	// ChunkOverheadNs is the fixed CPU cost of handling one chunk message.
	ChunkOverheadNs int64

	// DiskWriteBps and DiskReadBps are sequential local-disk bandwidths in
	// bytes per second; DiskSeekNs is charged once per spill-partition
	// open. Used only by the out-of-core baseline.
	DiskWriteBps float64
	DiskReadBps  float64
	DiskSeekNs   int64

	// BlockingMigration models split migrations as blocking sends: the
	// splitting node's CPU is occupied for the transfer's full wire time
	// before it releases the scheduler's barrier split pointer. The
	// default (false) lets migrations overlap with ongoing streaming,
	// which matches the paper's Figures 3-5 build times; the blocking
	// variant reproduces the regime of Figures 8-9, where split costs
	// grow with the build relation and the replication-based algorithm
	// wins. See EXPERIMENTS.md for the ablation.
	BlockingMigration bool
}

// OSUMed returns the cost model calibrated to the paper's cluster.
func OSUMed() CostModel {
	return CostModel{
		NetBandwidthBps:  12.5e6, // 100 Mb/s
		NetLatencyNs:     100_000,
		MsgOverheadBytes: 60,

		GenNs:           300,
		BuildNs:         900,
		ProbeNs:         700,
		MatchNs:         250,
		MoveNs:          250,
		ChunkOverheadNs: 50_000,

		DiskWriteBps: 25e6,
		DiskReadBps:  35e6,
		DiskSeekNs:   8_000_000,
	}
}

// NetTransferNs returns the serialisation time of a payload of the given
// size through one network port.
func (c CostModel) NetTransferNs(bytes int) int64 {
	return int64(float64(bytes) / c.NetBandwidthBps * 1e9)
}

// DiskNs returns the pure-bandwidth time to move bytes to or from the
// local disk. Seek costs are charged separately per partition open by the
// out-of-core machinery (spill writes are buffered and sequential).
func (c CostModel) DiskNs(bytes int64, read bool) int64 {
	bw := c.DiskWriteBps
	if read {
		bw = c.DiskReadBps
	}
	return int64(float64(bytes) / bw * 1e9)
}

// Package tcpnet is the ledger fixture's struct-assign case: a worker's
// report is copied in whole, and that assignment accrues every counter the
// report type carries. PeerProcessed is reset on an epoch path (clean);
// PeerEmitted is never reset, and only the whole-struct accrual shows it.
package tcpnet

type workerReport struct {
	PeerEmitted   []int64 // want `accrued but never reversed`
	PeerProcessed []int64
}

type workerConn struct {
	rep workerReport
}

func (w *workerConn) apply(r workerReport) {
	w.rep = r
}

func (w *workerConn) resetEpoch() {
	w.rep.PeerProcessed = nil
}

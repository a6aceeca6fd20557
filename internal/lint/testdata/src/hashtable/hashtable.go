// Package hashtable is the lockcheck-analyzer fixture: blocking calls
// while a lock may be held must be reported; the same calls after an
// explicit unlock, and annotated exceptions, must not.
package hashtable

import (
	"net"
	"sync"
	"time"
)

type shardSet struct {
	mu    sync.Mutex
	count int64
}

func (s *shardSet) readUnderLock(conn net.Conn, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := conn.Read(buf) // want `blocking call \(net.Conn\).Read`
	if err == nil {
		s.count++
	}
	return err
}

func (s *shardSet) sleepUnderLeakedLock(d time.Duration) {
	s.mu.Lock()
	time.Sleep(d) // want `blocking call time.Sleep`
}

func (s *shardSet) readAfterUnlock(conn net.Conn, buf []byte) error {
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
	_, err := conn.Read(buf)
	return err
}

func (s *shardSet) stallForTest(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockcheck fixture: the stall under lock is the behaviour being tested
	time.Sleep(d)
}

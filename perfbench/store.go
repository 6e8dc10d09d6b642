package main

import (
	"sync/atomic"
	"time"

	"repro/internal/vault"
)

// timedStore is the traced run's decorator around the vault.Store a
// collection writes through: it counts and times every Put and passes
// every other call through untouched.
type timedStore struct {
	vault.Store
	puts, errs, bytes, busyNanos atomic.Int64
}

func (s *timedStore) Put(domain, verdict string, received time.Time, plaintext []byte) (uint64, error) {
	start := time.Now()
	id, err := s.Store.Put(domain, verdict, received, plaintext)
	s.busyNanos.Add(int64(time.Since(start)))
	s.puts.Add(1)
	s.bytes.Add(int64(len(plaintext)))
	if err != nil {
		s.errs.Add(1)
	}
	return id, err
}

// report adds the decorator's counts to the trace.
func (s *timedStore) report(tr *tracer) {
	tr.add("vault.puts", float64(s.puts.Load()))
	tr.add("vault.put_errors", float64(s.errs.Load()))
	tr.add("vault.put_mb", float64(s.bytes.Load())/mib)
	tr.add("vault.put_s", time.Duration(s.busyNanos.Load()).Seconds())
}

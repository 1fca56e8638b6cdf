package flow

// PrevBitstream returns the full bitstream of the session's current
// revision: the stream a splice verifies its delta against and patches.
// Writes through it reach the session.
func (s *EditSession) PrevBitstream() []byte { return s.prev.Bitstream }

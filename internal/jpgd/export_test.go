package jpgd

// FlightWaiters reports how many requests wait on the in-flight execution
// of body on route (see cache.Group.Waiters), so tests can stage a
// coalesced follower before acting on its leader.
func (s *Server) FlightWaiters(route string, body []byte) int {
	return s.pipe.flights.Waiters(requestKey(route, body))
}

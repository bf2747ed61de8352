package mapreduce

// OffersCountable reports whether the driver's heartbeats may count idle
// offers instead of making them, as decided from its current scheduler and
// configuration.
func (d *Driver) OffersCountable() bool { return d.offersCountable() }

"""Defaults and bounds of the bulk searches that the command line reads
before it loads them.  Free of numpy, so that scalar commands start
without it; sieve and diophantine re-export the names they use."""

DEFAULT_SEGMENT_SIZE = 1 << 22

# Largest job count that --jobs, GPHI_JOBS and exotic_prime_search accept.  Every
# search runs in one process, so the count is only validated and echoed.
MAX_JOBS = 256

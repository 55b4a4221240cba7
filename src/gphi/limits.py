"""Defaults and bounds of the bulk searches that the command line reads
before it loads them.  Free of numpy, so that scalar commands start
without it; sieve and diophantine re-export the names they use."""

DEFAULT_SEGMENT_SIZE = 1 << 22

# exotic_prime_search's pool starts all its workers at once: the count is capped.
MAX_JOBS = 256

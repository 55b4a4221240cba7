"""The default segment size of the bulk searches, which the command line
reads before it loads them.  Free of numpy, so that scalar commands start
without it; sieve re-exports it."""

DEFAULT_SEGMENT_SIZE = 1 << 22

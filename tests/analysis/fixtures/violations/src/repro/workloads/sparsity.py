"""PAR001 positive fixture: a workload fast kernel with no oracle and no test."""


class LayerWorkload:
    def __init__(self, imap):
        self.imap = imap

    def window_counts_fast(self):  # PAR001: no counterpart, no test
        return sum(self.imap)

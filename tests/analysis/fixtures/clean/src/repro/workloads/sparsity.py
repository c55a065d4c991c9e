"""PAR001 negative fixture: a workload fast kernel with its oracle."""


class LayerWorkload:
    def __init__(self, imap):
        self.imap = imap

    def window_counts(self):
        total = 0
        for value in self.imap:
            total += value
        return total

    def window_counts_fast(self):
        return sum(self.imap)

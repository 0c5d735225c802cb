"""detlint fixture: DET007 — pooled objects escaping their handler."""


class Handler:
    def on_packet(self, packet: "RoCEPacket") -> None:
        self.last_packet = packet  # DET007: attribute store

    def on_segment(self, segment: TCPPacket) -> None:
        self.history.append(segment)  # DET007: accumulated into attribute

    def wrap_and_keep(self, packet: Packet) -> None:
        record = DropRecord(1, packet)
        self.drops.append(record)  # DET007: wrapped loan escapes

    def acquire_and_keep(self, ft) -> None:
        packet = self.pool.acquire_roce(ft, 64)
        self.pending[ft] = packet  # DET007: stored into container

    def copies_are_fine(self, packet: RoCEPacket) -> None:
        self.timestamps.append(packet.sent_at_ns)  # field copy: ok

    def local_batch_is_fine(self, packet: Packet) -> None:
        batch = []
        batch.append(packet)
        for item in batch:
            self.sizes.append(item.size_bytes)

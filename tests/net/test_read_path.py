"""A socket read must not cost page faults.

asyncio's selector transport allocates ``max_size`` (256 KiB) bytes for
every ``recv``; above glibc's 128 KiB mmap threshold that is an mmap, a
munmap and two minor faults per read (``docs/performance.md``, "Process
footprint and RESULT collection").  ``cap_read_buffer`` brings the
allocation under the threshold; this counts the faults, which repeat
exactly, in a fresh interpreter that imports nothing but the protocol —
a process that has imported numpy has had its threshold raised for it
and shows 0 either way.

Both ends read the way a worker's data connection does: a
``FrameStreamProtocol`` diverted to a frame callback, parsing inside the
transport's ``data_received``.
"""

import json

from tests.net.fresh_process import run_python

ECHO = """
import asyncio, json, resource, socket, sys
from repro.net.protocol import (
    FrameStreamProtocol, FrameType, cap_read_buffer, encode_frame,
)

FRAMES = 5000
PAYLOAD = bytes(range(256)) * 2 + bytes(16)


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


async def open_end(sock, on_frames):
    loop = asyncio.get_running_loop()
    protocol = FrameStreamProtocol(asyncio.StreamReader())
    transport, _ = await loop.create_connection(lambda: protocol, sock=sock)
    writer = asyncio.StreamWriter(transport, protocol, None, loop)
    cap_read_buffer(writer)
    protocol.divert(on_frames, lambda error: None)
    return writer


async def main():
    loop = asyncio.get_running_loop()
    a, b = socket.socketpair()
    replies = []

    def echo(frames):
        for frame in frames:
            writer_b.write(encode_frame(frame.type, frame.payload))

    def collect(frames):
        for frame in frames:
            replies.pop().set_result(frame)

    writer_b = await open_end(b, echo)
    writer_a = await open_end(a, collect)
    frame = encode_frame(FrameType.DATA, PAYLOAD)

    async def ping(count):
        for _ in range(count):
            replies.append(loop.create_future())
            writer_a.write(frame)
            reply = await replies[-1]
            assert reply.payload == PAYLOAD

    await ping(200)  # the heap grows to its working size once
    before = faults()
    await ping(FRAMES)
    grown = faults() - before
    report = {
        "frame_bytes": len(frame),
        "faults_per_frame": grown / FRAMES,
        "max_size": writer_a.transport.max_size,
        "numpy": "numpy" in sys.modules,
    }
    writer_a.close()
    writer_b.close()
    return report


print(json.dumps(asyncio.run(main())))
"""


def test_echoing_frames_costs_no_page_faults():
    report = json.loads(run_python(ECHO))
    assert report["frame_bytes"] == 540
    assert report["max_size"] == 64 * 1024
    assert not report["numpy"]
    # Two reads per echoed frame; uncapped, a fresh process shows 4.0.
    assert report["faults_per_frame"] < 0.1, report

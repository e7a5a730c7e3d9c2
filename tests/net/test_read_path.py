"""A socket read must not cost page faults.

asyncio's selector transport allocates ``max_size`` (256 KiB) bytes for
every ``recv``; above glibc's 128 KiB mmap threshold that is an mmap, a
munmap and two minor faults per read (``docs/performance.md``, "Process
footprint and RESULT collection").  ``cap_read_buffer`` brings the
allocation under the threshold; this counts the faults, which repeat
exactly, in a fresh interpreter that imports nothing but the protocol —
a process that has imported numpy has had its threshold raised for it
and shows 0 either way.
"""

import json

from tests.net.fresh_process import run_python

ECHO = """
import asyncio, json, resource, socket, sys
from repro.net.protocol import FrameType, cap_read_buffer, encode_frame, iter_frames

FRAMES = 5000
PAYLOAD = bytes(range(256)) * 2 + bytes(16)


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


async def main():
    a, b = socket.socketpair()
    reader_a, writer_a = await asyncio.open_connection(sock=a)
    reader_b, writer_b = await asyncio.open_connection(sock=b)
    cap_read_buffer(writer_a)
    cap_read_buffer(writer_b)

    async def echo():
        async for frame in iter_frames(reader_b):
            writer_b.write(encode_frame(frame.type, frame.payload))
            await writer_b.drain()

    echo_task = asyncio.create_task(echo())
    frame = encode_frame(FrameType.DATA, PAYLOAD)
    replies = iter_frames(reader_a)

    async def ping(count):
        for _ in range(count):
            writer_a.write(frame)
            await writer_a.drain()
            reply = await replies.__anext__()
            assert reply.payload == PAYLOAD

    await ping(200)  # the heap grows to its working size once
    before = faults()
    await ping(FRAMES)
    grown = faults() - before
    writer_a.close()
    await writer_a.wait_closed()
    await echo_task
    writer_b.close()
    return {
        "frame_bytes": len(frame),
        "faults_per_frame": grown / FRAMES,
        "max_size": writer_a.transport.max_size,
        "numpy": "numpy" in sys.modules,
    }


print(json.dumps(asyncio.run(main())))
"""


def test_echoing_frames_costs_no_page_faults():
    report = json.loads(run_python(ECHO))
    assert report["frame_bytes"] == 540
    assert report["max_size"] == 64 * 1024
    assert not report["numpy"]
    # Two reads per echoed frame; uncapped, a fresh process shows 4.0.
    assert report["faults_per_frame"] < 0.1, report

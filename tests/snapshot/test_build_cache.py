"""The content-addressed kernel build cache."""

import dataclasses

import pytest

from repro.chaos import ChaosPolicy, ChaosSpec, installed
from repro.cores.system import build_system
from repro.errors import MemoryError_
from repro.kernel.builder import (
    BUILD_CACHE_HEALTH,
    KernelBuilder,
    assemble_cached,
    build_kernel_system,
    reset_program_cache,
)
from repro.rtosunit.config import EVALUATED_CONFIGS, parse_config
from repro.workloads import RTOSBENCH_WORKLOADS, yield_pingpong


def _builder():
    workload = yield_pingpong(iterations=2)
    return KernelBuilder(config=parse_config("vanilla"),
                         objects=workload.objects,
                         tick_period=workload.tick_period), workload


def test_assemble_is_memoized():
    builder, _ = _builder()
    source = builder.source()
    origin = builder.layout.text_base
    first = assemble_cached(source, origin)
    second = assemble_cached(source, origin)
    assert first[0] is second[0]
    assert first[1] is second[1]
    reset_program_cache()
    third = assemble_cached(source, origin)
    assert third[0] is not first[0]


def test_source_is_memoized_per_builder():
    builder, _ = _builder()
    assert builder.source() is builder.source()


def test_blob_matches_word_loader():
    """load_image (blob blit) and load (per-word) produce the same RAM."""
    from repro.cores.system import build_system

    builder, _ = _builder()
    program, blob = assemble_cached(builder.source(),
                                    builder.layout.text_base)
    via_words = build_system("cv32e40p", builder.config,
                             layout=builder.layout,
                             tick_period=builder.tick_period)
    via_words.load(program)
    via_blob = build_system("cv32e40p", builder.config,
                            layout=builder.layout,
                            tick_period=builder.tick_period)
    via_blob.load_image(program, blob)
    assert via_words.memory.data == via_blob.memory.data
    assert via_words.core.pc == via_blob.core.pc


def test_cached_build_runs_identically():
    builder, workload = _builder()
    reset_program_cache()
    cold = builder.build("cv32e40p")  # populates the cache
    warm = builder.build("cv32e40p")  # hits it
    assert cold.run(workload.max_cycles) == warm.run(workload.max_cycles)
    assert cold.core.cycle == warm.core.cycle
    assert [dataclasses.asdict(s) for s in cold.switches] == \
        [dataclasses.asdict(s) for s in warm.switches]


def test_distinct_configs_do_not_collide():
    workload = yield_pingpong(iterations=2)
    vanilla = build_kernel_system("cv32e40p", parse_config("vanilla"),
                                  workload.objects,
                                  tick_period=workload.tick_period)
    slt = build_kernel_system("cv32e40p", parse_config("SLT"),
                              workload.objects,
                              tick_period=workload.tick_period)
    assert vanilla.memory.data != slt.memory.data


def _fig9_builders():
    """One builder per distinct kernel source of the Fig. 9 grid."""
    builders = {}
    for config_name in EVALUATED_CONFIGS:
        for factory in RTOSBENCH_WORKLOADS:
            workload = factory(10)
            builder = KernelBuilder(config=parse_config(config_name),
                                    objects=workload.objects,
                                    tick_period=workload.tick_period)
            builders.setdefault(builder.source(), builder)
    return list(builders.values())


def _flat_blob(words: dict) -> bytes:
    """The reference: one flat image from address 0 to the top word."""
    top = max(words) + 4 if words else 0
    image = bytearray(top)
    for addr, word in words.items():
        image[addr:addr + 4] = word.to_bytes(4, "little")
    return bytes(image)


def test_segments_load_like_the_flat_image():
    """Compact segments leave RAM byte-identical to the flat-image load."""
    builders = _fig9_builders()
    assert len(builders) == 35
    for builder in builders:
        program, segments = assemble_cached(builder.source(),
                                            builder.layout.text_base)
        assert sum(len(data) for _, data in segments) == \
            4 * len(program.words)
        via_segments = build_system("cv32e40p", builder.config,
                                    layout=builder.layout,
                                    tick_period=builder.tick_period)
        via_segments.load_image(program, segments)
        via_flat = build_system("cv32e40p", builder.config,
                                layout=builder.layout,
                                tick_period=builder.tick_period)
        via_flat.memory.load_blob(_flat_blob(program.words))
        assert via_segments.memory.data == via_flat.memory.data, (
            builder.config.name)


def test_image_larger_than_ram_raises():
    builder, _ = _builder()
    with pytest.raises(MemoryError_, match="exceeds RAM"):
        builder.build("cv32e40p", mem_size=0x1000)


def test_corrupt_image_is_evicted_and_reassembled():
    builder, _ = _builder()
    source, origin = builder.source(), builder.layout.text_base
    for evictions, kind in enumerate(("corrupt_blob", "truncate_blob"), 1):
        program, segments = assemble_cached(source, origin)
        with installed(ChaosPolicy(specs=(
                ChaosSpec(kind, "build.read", at=1),))):
            healed, healed_segments = assemble_cached(source, origin)
        assert BUILD_CACHE_HEALTH.corrupt_evictions == evictions
        assert healed is not program  # reassembled, not served
        assert [(addr, bytes(data)) for addr, data in healed_segments] == \
            [(addr, bytes(data)) for addr, data in segments]

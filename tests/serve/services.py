"""Hand-built one-stage services for event-loop and scheduler tests."""

from repro.mcm import PipelineService


def one_stage(model, cores, latency_cycles, input_load_cycles=0, scheme="traditional"):
    """The service ``service_for_plan`` returns for a ``cores``-core plan of
    this latency: one stage holding everything after the input load."""
    return PipelineService(
        model=model,
        scheme=scheme,
        chips=1,
        cores_per_chip=cores,
        stage_cycles=(latency_cycles - input_load_cycles,),
        transfer_cycles=(0,),
        input_load_cycles=input_load_cycles,
    )
